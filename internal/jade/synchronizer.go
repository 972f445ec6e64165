package jade

import "sync"

// entry is one access declaration in an object's dependence queue.
type entry struct {
	task *Task
	mode Mode
	done bool
	// index is the entry's absolute position in the object's queue.
	index int
	obj   *Object
}

// Synchronizer implements Jade's queue-based dependence analysis
// (§3.1/§3.3 of the paper). Each object carries a queue of access
// declarations in serial program order. A declared read is satisfied
// when every earlier write on that object has completed; a declared
// write is satisfied when every earlier access has completed. A task
// is enabled when all its declarations are satisfied.
//
// The Synchronizer is safe for concurrent use (the native runtime
// completes tasks from multiple goroutines); the simulated platforms
// drive it single-threaded.
type Synchronizer struct {
	mu sync.Mutex
	// slab is the arena the entries live in: chunked so pointers stay
	// stable, sized so task creation costs one allocation per chunk
	// rather than one per access. Entries live exactly as long as the
	// synchronizer (one run), so nothing is ever freed. ptrSlab arenas
	// the per-task entry-pointer slices the same way.
	slab    []entry
	ptrSlab []*entry
	// taskSlab arenas the newly-enabled slices Complete returns. A
	// task is enabled at most once per run, so the arena advances
	// monotonically and a returned slice is never handed out twice —
	// safe for callers that iterate it after releasing mu.
	taskSlab []*Task

	// Per-task state, indexed by TaskID: the entries mirroring the
	// task's Accesses in the per-object queues, its count of
	// unsatisfied dependences (it is enabled when that reaches zero),
	// and whether it has been enabled, which guards double submission.
	entries [][]*entry
	pending []int32
	enabled []bool
}

// entrySlabSize is the entry-arena chunk size; at 4–8 accesses per
// task one chunk covers tens of task creations.
const entrySlabSize = 256

// NewSynchronizer returns an empty synchronizer.
func NewSynchronizer() *Synchronizer { return &Synchronizer{} }

// newEntry allocates an entry from the arena. Callers must hold mu.
func (s *Synchronizer) newEntry() *entry {
	if len(s.slab) == cap(s.slab) {
		s.slab = make([]entry, 0, entrySlabSize)
	}
	s.slab = s.slab[:len(s.slab)+1]
	return &s.slab[len(s.slab)-1]
}

// entrySlice allocates a full-capacity n-pointer slice from the arena.
// Callers must hold mu.
func (s *Synchronizer) entrySlice(n int) []*entry {
	if cap(s.ptrSlab)-len(s.ptrSlab) < n {
		s.ptrSlab = make([]*entry, 0, max(entrySlabSize, n))
	}
	k := len(s.ptrSlab)
	s.ptrSlab = s.ptrSlab[:k+n]
	return s.ptrSlab[k : k+n : k+n]
}

// Register adds the task's access declarations to the object queues,
// assigns required versions, and computes the task's initial pending
// count. It reports whether the task is immediately enabled.
//
// Register must be called in serial program order: it defines the
// dependence semantics.
func (s *Synchronizer) Register(t *Task) (enabled bool) {
	s.mu.Lock()
	defer s.mu.Unlock()

	id := int(t.ID)
	for len(s.pending) <= id {
		s.entries = append(s.entries, nil)
		s.pending = append(s.pending, 0)
		s.enabled = append(s.enabled, false)
	}
	entries := s.entrySlice(len(t.Accesses))[:0]
	pending := int32(0)
	for i := range t.Accesses {
		a := &t.Accesses[i]
		o := a.Obj
		// Version assignment: reads see the last created write;
		// writes produce the next version.
		a.RequiredVersion = Version(o.writesCreated)
		if a.Writes() {
			o.writesCreated++
		}
		e := s.newEntry()
		*e = entry{task: t, mode: a.Mode, index: len(o.queue), obj: o}
		// Count conflicting earlier incomplete entries.
		for j := o.head; j < len(o.queue); j++ {
			prev := o.queue[j]
			if !prev.done && conflicts(prev.mode, e.mode) {
				pending++
			}
		}
		o.queue = append(o.queue, e)
		entries = append(entries, e)
	}
	s.entries[id], s.pending[id], s.enabled[id] = entries, pending, pending == 0
	return pending == 0
}

// conflicts reports whether two access modes on the same object imply
// a dependence (at least one writes).
func conflicts(a, b Mode) bool {
	return a&Write != 0 || b&Write != 0
}

// Complete marks the task's declared accesses as finished and returns
// the tasks newly enabled by its completion, ordered by task ID
// (serial program order) for deterministic scheduling.
func (s *Synchronizer) Complete(t *Task) []*Task {
	s.mu.Lock()
	defer s.mu.Unlock()

	// Start the result in the arena's spare capacity; append falls
	// back to a plain heap slice on the rare overflow past the chunk.
	if len(s.taskSlab) == cap(s.taskSlab) {
		s.taskSlab = make([]*Task, 0, entrySlabSize)
	}
	k := len(s.taskSlab)
	newly := s.taskSlab[k:k]
	for _, e := range s.entries[t.ID] {
		if !e.done {
			newly = s.finish(e, newly)
		}
	}
	if len(newly) <= cap(s.taskSlab)-k {
		// append never outgrew the chunk, so newly still aliases the
		// arena: claim its span so the next call starts past it.
		s.taskSlab = s.taskSlab[:k+len(newly)]
	}
	sortTasksByID(newly)
	return newly
}

// finish marks entry e done and appends to newly the tasks its
// completion enables: later conflicting entries release their tasks'
// dependences. Callers must hold mu.
func (s *Synchronizer) finish(e *entry, newly []*Task) []*Task {
	e.done = true
	o := e.obj
	for j := e.index + 1; j < len(o.queue); j++ {
		later := o.queue[j]
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
	// Advance the completed prefix so Register scans stay short.
	for o.head < len(o.queue) && o.queue[o.head].done {
		o.head++
	}
	return newly
}

// sortTasksByID orders tasks by creation order. The slices are tiny,
// so insertion sort suffices. A task appears at most once (the enabled
// flag guards duplicate release), so no dedup is needed.
func sortTasksByID(ts []*Task) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j-1].ID > ts[j].ID; j-- {
			ts[j-1], ts[j] = ts[j], ts[j-1]
		}
	}
}
