package jade

import (
	"fmt"
	"slices"
)

// Synchronizer is Jade's dependence engine (§3.1/§3.3 of the paper). A
// task is enabled once every conflicting access declared before it in
// serial program order has completed: a read waits for the object's
// earlier writes, a write for all its earlier accesses.
//
// The engine keeps that relation transitively reduced, as counted
// predecessors. Each declared access is an entry. Per object, Register
// remembers only the last write's entry and the reads since it: a read
// waits on that write, and a write waits on those reads, or on the last
// write if there are none. Every dropped edge runs from an entry that
// must complete before one of the kept predecessors can even be
// enabled, so each task still enables at exactly the completion the
// full relation enables it at. Register skips entries already done: the
// native runtime completes tasks while the program creates more, and
// after a Wait every earlier entry is done.
//
// Completing an entry decrements the pending count of each task on its
// successor list; a task whose count reaches zero is enabled. The same
// flat arrays, frozen into a ReplayPlan, drive every replay of a
// captured graph (see Runtime.ResetReplay).
//
// A Synchronizer is not safe for concurrent use.
type Synchronizer struct {
	// Per task, indexed by TaskID: the task, its first entry (its i-th
	// access is entry entryStart[t]+i) and its pending count — the
	// edges still to fire into it while positive, 0 once enabled,
	// finished once completed.
	tasks      []*Task
	entryStart []int32
	pending    []int32

	// Per entry: whether it completed, and the first edge of its
	// successor list. Per edge: the next edge of the same list and the
	// successor task. Edge indices are stored +1, so 0 ends a list.
	done  []uint64
	first []int32
	next  []int32
	succ  []int32

	// newly is the scratch Complete and CompleteEntry return.
	newly []*Task

	// reg is the state only Register reads; a replay has none.
	reg *registry
}

// registry holds, per entry, the last edge of its successor list and
// the previous read of the same object since its last write (+1), and
// per ObjectID the object's state.
type registry struct {
	last, prevRead []int32
	objs           []objState
}

// objState is an object's last write and last read since it (+1), and
// its count of writes, which numbers versions.
type objState struct {
	lastWrite, lastRead int32
	writes              Version
}

// finished is the pending count of a completed task.
const finished = -1

// NewSynchronizer returns an empty synchronizer.
func NewSynchronizer() *Synchronizer { return &Synchronizer{} }

func bitGet(bits []uint64, i int32) bool { return bits[i>>6]&(1<<(i&63)) != 0 }
func bitSet(bits []uint64, i int32)      { bits[i>>6] |= 1 << (i & 63) }

// registry returns the registration state, creating it on first use.
func (s *Synchronizer) registry() *registry {
	if s.reg == nil {
		s.reg = &registry{}
	}
	return s.reg
}

// object returns the state of object id.
func (r *registry) object(id ObjectID) *objState {
	for int(id) >= len(r.objs) {
		r.objs = append(r.objs, objState{})
	}
	return &r.objs[id]
}

// Register adds the task's access declarations, assigns their required
// versions, and links the task behind its unfinished predecessors. It
// reports whether the task is immediately enabled.
//
// Register must be called in serial program order, with t.ID equal to
// the number of tasks registered before it: the order defines the
// dependence semantics.
func (s *Synchronizer) Register(t *Task) (enabled bool) {
	id := int32(len(s.tasks))
	if t.ID != TaskID(id) {
		panic(fmt.Sprintf("jade: task %d registered as task %d", t.ID, id))
	}
	r, e0 := s.registry(), int32(len(s.first))
	s.tasks = append(s.tasks, t)
	s.entryStart = append(s.entryStart, e0)
	pending := int32(0)
	for i := range t.Accesses {
		a, e := &t.Accesses[i], e0+int32(i)
		if int(e>>6) == len(s.done) {
			s.done = append(s.done, 0)
		}
		s.first, r.last, r.prevRead = append(s.first, 0), append(r.last, 0), append(r.prevRead, 0)
		o := r.object(a.Obj.ID)
		a.RequiredVersion = o.writes
		if !a.Writes() {
			if o.lastWrite != 0 {
				pending += s.link(o.lastWrite-1, id)
			}
			r.prevRead[e], o.lastRead = o.lastRead, e+1
			continue
		}
		if o.lastRead != 0 {
			for k := o.lastRead; k != 0; k = r.prevRead[k-1] {
				pending += s.link(k-1, id)
			}
		} else if o.lastWrite != 0 {
			pending += s.link(o.lastWrite-1, id)
		}
		o.lastWrite, o.lastRead = e+1, 0
		o.writes++
	}
	s.pending = append(s.pending, pending)
	return pending == 0
}

// link appends task t to entry e's successor list unless e is done, and
// returns the pending count that adds to t.
func (s *Synchronizer) link(e, t int32) int32 {
	if bitGet(s.done, e) {
		return 0
	}
	s.succ, s.next = append(s.succ, t), append(s.next, 0)
	k, last := int32(len(s.succ)), s.reg.last
	if last[e] == 0 {
		s.first[e] = k
	} else {
		s.next[last[e]-1] = k
	}
	last[e] = k
	return 1
}

// RegisterSerial assigns a serial phase's accesses their versions. The
// main program's own reads and writes number versions like a task's,
// but create no entries: a serial phase runs with no task outstanding.
func (s *Synchronizer) RegisterSerial(accs []Access) {
	r := s.registry()
	for i := range accs {
		a := &accs[i]
		o := r.object(a.Obj.ID)
		a.RequiredVersion = o.writes
		if a.Writes() {
			o.writes++
		}
	}
}

// Complete marks the task's declared accesses finished and returns the
// tasks newly enabled by its completion, ordered by task ID (serial
// program order) for deterministic scheduling. The slice is scratch,
// valid until the next completion.
func (s *Synchronizer) Complete(t *Task) []*Task { return s.complete(t, nil) }

// CompleteEntry marks the task's declaration on object o finished and
// returns the tasks newly enabled, like Complete.
func (s *Synchronizer) CompleteEntry(t *Task, o *Object) []*Task { return s.complete(t, o) }

// complete finishes t's not-yet-done entries, only the one on o when o
// is non-nil. Each entry fires once, and a task's pending count is
// exactly its number of incoming edges, so it reaches zero once.
func (s *Synchronizer) complete(t *Task, o *Object) []*Task {
	s.newly = s.newly[:0]
	e0 := s.entryStart[t.ID]
	for i := range t.Accesses {
		e := e0 + int32(i)
		if (o != nil && t.Accesses[i].Obj != o) || bitGet(s.done, e) {
			continue
		}
		bitSet(s.done, e)
		for k := s.first[e]; k != 0; k = s.next[k-1] {
			n := s.succ[k-1]
			if s.pending[n]--; s.pending[n] == 0 {
				s.newly = append(s.newly, s.tasks[n])
			}
		}
	}
	sortTasksByID(s.newly)
	return s.newly
}

// finish marks t completed; it panics unless t is enabled and has not
// completed before.
func (s *Synchronizer) finish(t *Task) {
	switch p := &s.pending[t.ID]; *p {
	case 0:
		*p = finished
	case finished:
		panic(fmt.Sprintf("jade: task %d completed twice", t.ID))
	default:
		panic(fmt.Sprintf("jade: task %d completed with %d dependences unsatisfied", t.ID, *p))
	}
}

// sortTasksByID orders tasks by creation order. The slices are tiny and
// each completed entry appends its successors in ID order, so insertion
// sort suffices. A task appears at most once, so no dedup is needed.
func sortTasksByID(ts []*Task) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j-1].ID > ts[j].ID; j-- {
			ts[j-1], ts[j] = ts[j], ts[j-1]
		}
	}
}

// ReplayPlan is a frozen Synchronizer: the dependence arrays of one
// registered program, shared read-only by every replay of it. Objects
// and Tasks are fully materialized — access lists with RequiredVersion
// filled in — and no platform mutates them, so concurrent replay
// runtimes share them without copying.
type ReplayPlan struct {
	// Objects and Tasks in creation order; IDs equal slice indices.
	Objects []*Object
	Tasks   []*Task

	// InitPending[t] is task t's pending count at creation, its number
	// of incoming edges: the task is enabled immediately iff it is zero.
	InitPending []int32
	// EntryStart, First, Next and Succ are the Synchronizer's arrays of
	// the same names: task t's i-th access is entry EntryStart[t]+i, and
	// entry e's successors are Succ[k-1] for k = First[e], Next[k-1], …
	// until k is 0.
	EntryStart, First, Next, Succ []int32
}

// Plan freezes the registered program into a replay plan over objects
// and tasks, which must mirror the registered ones ID for ID (copies
// that drop payloads and bodies). The plan copies the arrays it keeps
// at their exact length.
func (s *Synchronizer) Plan(objects []*Object, tasks []*Task) *ReplayPlan {
	if len(tasks) != len(s.tasks) {
		panic(fmt.Sprintf("jade: plan over %d tasks, %d registered", len(tasks), len(s.tasks)))
	}
	init := make([]int32, len(tasks))
	for _, n := range s.succ {
		init[n]++
	}
	return &ReplayPlan{Objects: objects, Tasks: tasks, InitPending: init,
		EntryStart: slices.Clone(s.entryStart), First: slices.Clone(s.first),
		Next: slices.Clone(s.next), Succ: slices.Clone(s.succ)}
}

// resetReplay makes s the engine plan p was frozen from, at the moment
// every task was registered and none had completed. It shares p's
// arrays and keeps its own storage for the state a replay mutates.
func (s *Synchronizer) resetReplay(p *ReplayPlan) {
	s.tasks, s.entryStart = p.Tasks, p.EntryStart
	s.first, s.next, s.succ = p.First, p.Next, p.Succ
	s.pending = append(s.pending[:0], p.InitPending...)
	n := (len(p.First) + 63) / 64
	s.done = slices.Grow(s.done[:0], n)[:n]
	clear(s.done)
	clear(s.newly)
	s.newly = s.newly[:0]
	s.reg = nil
}
