// Package metrics collects the per-run measurements the paper's
// evaluation section reports: execution times, task locality, task
// execution totals, message volume, fetch latencies, and
// task-management overhead.
package metrics

import "repro/internal/obsv"

// Run accumulates measurements for one execution of a Jade program on
// one platform configuration. On a simulated machine every counter is
// folded in one place, the machine kit (internal/machine), from what
// the machine reports happened; each field names the machine.Core
// methods that fold it. The folds that move objects (Accessed,
// Replied, Pushed, Got and the transport's MainFetch) also emit each
// object's obsv.Fetch event, classed as they count it, so an attached
// obsv.Observer's per-object bytes and replicated reads sum to these
// counters exactly. ExecTime and ProcBusy are read from the
// processors instead, and the granularity pass stamps its own fields
// after the run.
type Run struct {
	// Procs is the number of processors in the configuration.
	Procs int
	// ExecTime is the program's simulated execution time in seconds
	// (virtual wall clock at Finish).
	ExecTime float64

	// TaskCount is the number of tasks executed (Dispatched).
	TaskCount int
	// TasksOnTarget counts tasks that executed on their target
	// processor (the owner of their locality object) — Figures 2–5
	// and 12–15 (Dispatched).
	TasksOnTarget int

	// TaskExecTotal is the summed execution time of task bodies, in
	// seconds (Dispatched). On the shared-memory model this includes the
	// memory access time, so communication shows up here (Figures
	// 6–9); on the message-passing model it is pure compute (the paper
	// notes the iPSC task times include no communication).
	TaskExecTotal float64

	// MsgBytes and MsgCount measure the messages that carry shared
	// objects on the ipsc, pgas and cluster machines (Arrived with
	// objects, and Replied, Pushed, Got, Put and MainFetch); task
	// assignments, completion notices and fetch requests count toward
	// neither. An iPSC adaptive broadcast counts as P−1 messages of the
	// object's size (Broadcasted). Figures 16–19 use
	// MsgBytes/TaskExecTotal.
	MsgBytes int64
	MsgCount int64
	// BroadcastCount counts adaptive-broadcast operations performed
	// (Broadcasted).
	BroadcastCount int
	// ReplicatedReads counts object fetches satisfied by creating an
	// additional read copy (the replication optimization, §5.1):
	// Replied when replicated, and Got; their Fetch events are of
	// class obsv.Replica.
	ReplicatedReads int64

	// ObjectLatency is the sum over object requests of the time from
	// request send to object arrival (each object of Replied or a
	// Got); TaskLatency is the sum over tasks of the time from
	// first request to last arrival (the kit's fetch tail). Both are
	// kept where the machine measures fetch stalls (§5.5).
	ObjectLatency float64
	TaskLatency   float64

	// TaskMgmtTime is the time the implementation (as opposed to
	// application code) spends creating, scheduling, and dispatching
	// tasks, summed over processors: the kit charges creation,
	// assignment and completion handling at the machine's prices, and
	// the machine each dispatch (Dispatched).
	TaskMgmtTime float64

	// Fault-injection accounting (internal/fault); all zero on a
	// healthy run. MsgDropped counts transmissions lost in flight on
	// the message-passing model, MsgRetransmits the timeout-driven
	// resends that recovered them (both Dropped), and MsgDuplicates
	// in-flight duplicates discarded by the receiver (Duplicated).
	// FaultInvalidations counts cache hits the shared-memory model
	// forced back to memory during injected invalidation storms
	// (Invalidated).
	MsgDropped         int64
	MsgRetransmits     int64
	MsgDuplicates      int64
	FaultInvalidations int64

	// PGAS one-sided-communication accounting (internal/pgas); all
	// zero on the other machines. RemoteGets/RemotePuts count
	// one-sided operations, the objects of each Got and Put (one
	// batched message carries several); AggregatedMsgs counts gets and
	// puts that coalesced more than one operation, and AggBenefitBytes
	// the header bytes that coalescing saved.
	RemoteGets      int64
	RemotePuts      int64
	AggregatedMsgs  int64
	AggBenefitBytes int64

	// Granularity-pass accounting (internal/fuse); all zero when both
	// knobs are off. TasksFused counts tasks eliminated by fusing
	// chains into single scheduled units, and FusionBenefitBytes the
	// task-management message bytes (task message + completion notice
	// per eliminated task) fusion avoided; the pass stamps both after
	// the run. MsgsCoalesced counts messages eliminated by batching
	// same-destination fetches: the objects of each reply beyond its
	// first (Replied).
	TasksFused         int64
	MsgsCoalesced      int64
	FusionBenefitBytes int64

	// RemoteBytes counts bytes satisfied from remote memory on the
	// shared-memory model (Accessed) and, on the PGAS model, bytes
	// moved by remote gets (Got, and MainFetch's gets).
	RemoteBytes int64
	// LocalBytes counts bytes satisfied from local memory or cache,
	// and on the PGAS model from a locale's cache or own segment
	// (Accessed).
	LocalBytes int64

	// ProcBusy records each processor's total busy time in seconds
	// (CPU occupancy: tasks, serial phases, scheduling).
	ProcBusy []float64

	// Obsv holds the structured observability snapshot (per-object
	// stats, latency distributions, utilization timeline) of an
	// obsv.Observer fed the run's event stream, set by the code that
	// attached it; nil otherwise.
	Obsv *obsv.Snapshot
}

// Utilization returns each processor's busy fraction of the run. The
// raw ratio is returned unclamped: a fraction above one means the
// processor was busy longer than the run lasted, which is a simulator
// accounting bug that OverBusy surfaces rather than hiding.
func (r *Run) Utilization() []float64 {
	if r.ExecTime <= 0 {
		return nil
	}
	out := make([]float64, len(r.ProcBusy))
	for i, b := range r.ProcBusy {
		out[i] = b / r.ExecTime
	}
	return out
}

// overBusySlack absorbs float-summation noise when comparing a
// processor's accumulated busy time against the run length.
const overBusySlack = 1e-9

// OverBusy returns the processors whose busy time exceeds the run's
// execution time (beyond float rounding slack) — evidence of
// double-charged work in a machine model. A correct simulator returns
// an empty list.
func (r *Run) OverBusy() []int {
	var bad []int
	for i, b := range r.ProcBusy {
		if b > r.ExecTime*(1+overBusySlack)+overBusySlack {
			bad = append(bad, i)
		}
	}
	return bad
}

// LocalityPct returns the percentage of tasks executed on their target
// processor (100 × TasksOnTarget/TaskCount).
func (r *Run) LocalityPct() float64 {
	if r.TaskCount == 0 {
		return 0
	}
	return 100 * float64(r.TasksOnTarget) / float64(r.TaskCount)
}

// CommCompRatio returns the communication-to-computation ratio in
// Mbytes of shared-object messages per second of task execution
// (Figures 16–19).
func (r *Run) CommCompRatio() float64 {
	if r.TaskExecTotal == 0 {
		return 0
	}
	return float64(r.MsgBytes) / 1e6 / r.TaskExecTotal
}

// ObjectToTaskLatencyRatio returns ObjectLatency/TaskLatency (§5.5); a
// value near one means concurrent fetches bought nothing.
func (r *Run) ObjectToTaskLatencyRatio() float64 {
	if r.TaskLatency == 0 {
		return 0
	}
	return r.ObjectLatency / r.TaskLatency
}
