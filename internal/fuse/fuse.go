// Package fuse holds the shared pieces of the granularity optimization
// pass: the fusion knobs and the process-wide counters the serving
// layer exposes.
//
// The paper's Figures 10-11 and 20-21 show task-management overhead
// swamping the communication optimizations at fine granularity — the
// one axis Jade never optimizes. This pass attacks it from two sides:
// task fusion (chains of tiny tasks with nested access specs collapse
// into one scheduled unit; see graph.Fuse) and message coalescing
// (same-destination fetches issued in one scheduling quantum share one
// header; the machine kit's message records group them, see
// machine.Central.Group). Both are toggles, exactly like the paper's
// own optimization levels, so every experiment can measure them on and
// off.
//
// The package is a leaf: it imports nothing from the rest of the
// repository, so the graph layer, the machine models, the experiment
// drivers, and the server can all share it without cycles.
package fuse

import "sync/atomic"

// Options are the task-fusion knobs. The zero value disables fusion
// (MaxChain < 2 fuses nothing); DefaultOptions is what RunSpec and the
// granularity sweep use.
type Options struct {
	// MaxChain caps how many consecutive tasks one fused unit may
	// absorb. Longer chains amortize more per-task management overhead
	// but make the scheduled unit coarser.
	MaxChain int

	// MaxWork is the tiny-task threshold in modeled seconds: only
	// tasks at or below it are fusion candidates. Tasks above it
	// already amortize their own management overhead, and fusing them
	// would serialize real work.
	MaxWork float64
}

// DefaultOptions returns the fusion policy used when a RunSpec enables
// fusion without overriding the knobs: chains up to 64 tasks, tiny
// meaning at most 100 microseconds of modeled work. 100 microseconds
// sits just below the iPSC's per-task management cost (task create +
// assign + dispatch + completion handling is ~450 microseconds of
// main-processor time), so every task the threshold admits is one the
// paper's own figures show drowning in overhead.
func DefaultOptions() Options {
	return Options{MaxChain: 64, MaxWork: 100e-6}
}

// Enabled reports whether the options can fuse anything at all.
func (o Options) Enabled() bool { return o.MaxChain >= 2 }

// Counters is a snapshot of the process-wide granularity-pass totals,
// as exposed through /metricz and the Prometheus exposition.
type Counters struct {
	// TasksFused counts tasks eliminated by fusion: a chain of n tasks
	// collapsing into one scheduled unit adds n-1.
	TasksFused uint64 `json:"tasks_fused"`
	// MsgsCoalesced counts messages eliminated by coalescing: a batch
	// of n same-destination fetches sharing one message adds n-1.
	MsgsCoalesced uint64 `json:"msgs_coalesced"`
	// FusionBenefitBytes counts task-management message bytes fusion
	// avoided sending (one task message + one completion per
	// eliminated task, priced by the machine's cost model).
	FusionBenefitBytes uint64 `json:"fusion_benefit_bytes"`
}

var (
	tasksFused         atomic.Uint64
	msgsCoalesced      atomic.Uint64
	fusionBenefitBytes atomic.Uint64
)

// AddTasksFused adds eliminated-task count to the process totals.
func AddTasksFused(n uint64) { tasksFused.Add(n) }

// AddMsgsCoalesced adds eliminated-message count to the process totals.
func AddMsgsCoalesced(n uint64) { msgsCoalesced.Add(n) }

// AddFusionBenefitBytes adds avoided task-management bytes to the
// process totals.
func AddFusionBenefitBytes(n uint64) { fusionBenefitBytes.Add(n) }

// Snapshot returns the current process-wide totals. Each counter is an
// independent atomic read; like every other /metricz gauge pair they
// are point-in-time, monotone values.
func Snapshot() Counters {
	return Counters{
		TasksFused:         tasksFused.Load(),
		MsgsCoalesced:      msgsCoalesced.Load(),
		FusionBenefitBytes: fusionBenefitBytes.Load(),
	}
}
