package jade

import "fmt"

// This file is the runtime half of graph replay. A ReplayPlan is a
// structure-of-arrays precomputation of everything the synchronizer
// would derive while re-walking a captured op stream: access versions
// (already baked into the shared Access slices), initial pending
// counts, and the successor edges each access entry fires when it
// completes. The plan depends only on the op stream, so one plan drives
// any number of runtimes — sequentially or concurrently — each carrying
// only a few flat per-variant slices of mutable state.
//
// Why a static plan is exact: platforms only complete tasks inside
// Drain, and tasks are only created between Drains, so at registration
// time every earlier same-epoch entry is live. A later conflicting
// entry can never be done before an earlier conflicting one completes
// (its task could not have been enabled), so the synchronizer's
// "skip completed successors" check never fires and the pending
// decrements a completing entry performs are exactly its static edge
// list. The same fact lets the plan keep only the transitive reduction
// of those edges: an entry whose completion is implied by a later
// conflicting one can never be the last to complete, so dropping its
// edge never changes when a task enables. Serial phases create no queue
// entries (they require an empty graph), so they affect the plan only
// through version numbering.

// ReplayPlan is the immutable, shareable precomputation for replaying
// one captured graph. Objects and Tasks are fully materialized —
// including access lists with RequiredVersion filled in — and are
// treated as read-only by every platform, so concurrent replay
// runtimes share them without copying.
type ReplayPlan struct {
	// Objects and Tasks in creation order; IDs equal slice indices.
	Objects []*Object
	Tasks   []*Task

	// InitPending[t] is task t's predecessor count at creation time:
	// the task is enabled immediately iff it is zero.
	InitPending []int32

	// EntryStart indexes the per-access entry space: task t's i-th
	// access is entry EntryStart[t]+i, and len(EntryStart) is
	// len(Tasks)+1 so spans are EntryStart[t]..EntryStart[t+1].
	EntryStart []int32

	// Edges[EdgeStart[e]:EdgeStart[e+1]] lists the task IDs whose
	// pending count drops by one when entry e completes; InitPending[t]
	// counts t's incoming edges.
	EdgeStart []int32
	Edges     []int32
}

// replayState is one runtime's mutable replay state: flat mirrors of
// the per-task fields (pending, enabled, executed) and per-entry done
// bits the synchronizer would otherwise keep on the shared Task and
// Object structs.
type replayState struct {
	plan      *ReplayPlan
	pending   []int32
	entryDone []uint64
	executed  []uint64
	newly     []*Task // scratch; fully consumed before the next completion
}

func bitGet(bits []uint64, i int) bool { return bits[i>>6]&(1<<(i&63)) != 0 }
func bitSet(bits []uint64, i int)      { bits[i>>6] |= 1 << (i & 63) }

// capacityHinter is an optional platform extension: a replay knows the
// exact object and task counts from its plan, so hinting them lets the
// platform size its dense per-object and per-task structures once
// instead of growing them by appending.
type capacityHinter interface {
	ReserveCapacity(objects, tasks int)
}

// NewReplay creates a runtime that re-issues the planned graph into p.
// The runtime shares the plan's objects and tasks (read-only) and owns
// only the flat per-variant state, so constructing a variant is a
// handful of small allocations regardless of graph size.
func NewReplay(p Platform, cfg Config, plan *ReplayPlan) *Runtime {
	rt := &Runtime{platform: p, cfg: cfg}
	words := func(n int) []uint64 { return make([]uint64, (n+63)/64) }
	nEntries := int(plan.EntryStart[len(plan.Tasks)])
	rt.rp = &replayState{
		plan:      plan,
		pending:   append([]int32(nil), plan.InitPending...),
		entryDone: words(nEntries),
		executed:  words(len(plan.Tasks)),
	}
	rt.objects = plan.Objects
	rt.tasks = plan.Tasks
	p.Attach(rt)
	if h, ok := p.(capacityHinter); ok {
		h.ReserveCapacity(len(plan.Objects), len(plan.Tasks))
	}
	return rt
}

// ReplayObject announces the planned object to the platform. The
// replay driver calls it in allocation order.
func (rt *Runtime) ReplayObject(o *Object) {
	rt.platform.ObjectAllocated(o)
}

// ReplayTask announces the planned task to the platform, enabled iff
// its precomputed pending count is zero. (No completion can have run
// between creation and this call — completions happen only inside
// Drain — so the live pending count still equals InitPending.)
func (rt *Runtime) ReplayTask(t *Task) {
	rt.outstanding.Add(1)
	rt.platform.TaskCreated(t, rt.rp.pending[t.ID] == 0)
}

// ReplaySerial announces a planned serial phase: accs carries the
// versions baked in by the plan, so unlike SerialAccesses nothing is
// mutated here.
func (rt *Runtime) ReplaySerial(work float64, accs []Access) {
	if n := rt.outstanding.Load(); n != 0 {
		panic(fmt.Sprintf("jade: replayed serial phase with %d tasks outstanding", n))
	}
	if len(accs) > 0 {
		rt.platform.MainTouches(accs)
	}
	rt.platform.SerialWork(work)
}

// markExecuted is the replay-mode mirror of the executed flag checks
// in RunBody and RunSegmentBody.
func (rp *replayState) markExecuted(t *Task) {
	if bitGet(rp.executed, int(t.ID)) {
		panic(fmt.Sprintf("jade: task %d body executed twice", t.ID))
	}
	bitSet(rp.executed, int(t.ID))
}

// fire completes entry e, decrementing its successors and collecting
// the newly enabled tasks into the scratch slice. A task enables at
// most once without any guard bit: InitPending is exactly its incoming
// edge count and entryDone lets each entry fire at most once, so
// pending reaches zero exactly once.
func (rp *replayState) fire(e int32) {
	p := rp.plan
	pending := rp.pending
	for _, s := range p.Edges[p.EdgeStart[e]:p.EdgeStart[e+1]] {
		pending[s]--
		if pending[s] == 0 {
			rp.newly = append(rp.newly, p.Tasks[s])
		}
	}
}

// completeAll completes every not-yet-done entry of t (the replay
// mirror of Synchronizer.Complete), returning the newly enabled tasks
// in task-ID order. The returned slice is scratch: it is valid until
// the next completion on this runtime.
func (rp *replayState) completeAll(t *Task) []*Task {
	rp.newly = rp.newly[:0]
	e0 := rp.plan.EntryStart[t.ID]
	for i := range t.Accesses {
		e := e0 + int32(i)
		if bitGet(rp.entryDone, int(e)) {
			continue
		}
		bitSet(rp.entryDone, int(e))
		rp.fire(e)
	}
	sortTasksByID(rp.newly)
	return rp.newly
}

// completeOn completes t's entries on object o only (the replay mirror
// of Synchronizer.CompleteEntry, backing ReleaseEarly).
func (rp *replayState) completeOn(t *Task, o *Object) []*Task {
	rp.newly = rp.newly[:0]
	e0 := rp.plan.EntryStart[t.ID]
	for i := range t.Accesses {
		if t.Accesses[i].Obj != o {
			continue
		}
		e := e0 + int32(i)
		if bitGet(rp.entryDone, int(e)) {
			continue
		}
		bitSet(rp.entryDone, int(e))
		rp.fire(e)
	}
	sortTasksByID(rp.newly)
	return rp.newly
}
