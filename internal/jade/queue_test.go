package jade

// QueueSynchronizer is the reference model the dependence engine is
// tested against: the paper's per-object queues of access declarations
// in serial program order (§3.1/§3.3), rescanned on every registration
// and completion. A declared read is satisfied when every earlier write
// on its object has completed; a declared write when every earlier
// access has. A task is enabled when all its declarations are
// satisfied. The rescans make it quadratic per object, which is why
// the product engine keeps the transitively reduced relation instead.
type QueueSynchronizer struct {
	queues  map[ObjectID][]*queueEntry
	writes  map[ObjectID]Version
	entries map[TaskID][]*queueEntry
	pending map[TaskID]int
	enabled map[TaskID]bool
}

// queueEntry is one access declaration in an object's queue; index is
// its position there.
type queueEntry struct {
	task  *Task
	obj   *Object
	mode  Mode
	done  bool
	index int
}

func NewQueueSynchronizer() *QueueSynchronizer {
	return &QueueSynchronizer{queues: map[ObjectID][]*queueEntry{}, writes: map[ObjectID]Version{},
		entries: map[TaskID][]*queueEntry{}, pending: map[TaskID]int{}, enabled: map[TaskID]bool{}}
}

// conflicts reports whether two access modes on the same object imply
// a dependence (at least one writes).
func conflicts(a, b Mode) bool { return a&Write != 0 || b&Write != 0 }

// Register appends the task's declarations to the object queues,
// assigns required versions and counts the conflicting earlier
// declarations not yet completed. It reports whether the task is
// immediately enabled.
func (s *QueueSynchronizer) Register(t *Task) bool {
	pending := 0
	for i := range t.Accesses {
		a := &t.Accesses[i]
		id := a.Obj.ID
		a.RequiredVersion = s.writes[id]
		if a.Writes() {
			s.writes[id]++
		}
		e := &queueEntry{task: t, obj: a.Obj, mode: a.Mode, index: len(s.queues[id])}
		for _, prev := range s.queues[id] {
			if !prev.done && conflicts(prev.mode, e.mode) {
				pending++
			}
		}
		s.queues[id] = append(s.queues[id], e)
		s.entries[t.ID] = append(s.entries[t.ID], e)
	}
	s.pending[t.ID], s.enabled[t.ID] = pending, pending == 0
	return pending == 0
}

// RegisterSerial numbers a serial phase's versions.
func (s *QueueSynchronizer) RegisterSerial(accs []Access) {
	for i := range accs {
		a := &accs[i]
		a.RequiredVersion = s.writes[a.Obj.ID]
		if a.Writes() {
			s.writes[a.Obj.ID]++
		}
	}
}

// Complete marks all the task's declarations finished and returns the
// tasks newly enabled, in task-ID order.
func (s *QueueSynchronizer) Complete(t *Task) []*Task { return s.complete(t, nil) }

// CompleteEntry marks the task's declaration on o finished.
func (s *QueueSynchronizer) CompleteEntry(t *Task, o *Object) []*Task { return s.complete(t, o) }

func (s *QueueSynchronizer) complete(t *Task, o *Object) []*Task {
	var newly []*Task
	for _, e := range s.entries[t.ID] {
		if e.done || (o != nil && e.obj != o) {
			continue
		}
		e.done = true
		// Every later conflicting declaration still waiting loses one
		// unsatisfied dependence.
		for _, later := range s.queues[e.obj.ID][e.index+1:] {
			if later.done || !conflicts(e.mode, later.mode) {
				continue
			}
			id := later.task.ID
			s.pending[id]--
			if s.pending[id] == 0 && !s.enabled[id] {
				s.enabled[id] = true
				newly = append(newly, later.task)
			}
		}
	}
	sortTasksByID(newly)
	return newly
}

// ReplaySynchronizer returns the engine a replay runtime builds from p.
func ReplaySynchronizer(p *ReplayPlan) *Synchronizer {
	s := &Synchronizer{}
	s.resetReplay(p)
	return s
}
