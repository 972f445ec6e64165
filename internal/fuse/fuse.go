// Package fuse holds the granularity optimization pass's fusion knobs.
// It holds no mutable state: what a pass accomplished travels on each
// run's own document (tasks_fused, msgs_coalesced,
// fusion_benefit_bytes).
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
// repository, so the graph layer and the experiment drivers can share
// it without cycles.
package fuse

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
