package jade

// Mode describes how a task accesses a shared object.
type Mode uint8

const (
	// Read declares the task will read the object.
	Read Mode = 1 << iota
	// Write declares the task will write the object. A task that both
	// reads and writes declares Read|Write.
	Write
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch {
	case m&Read != 0 && m&Write != 0:
		return "rdwr"
	case m&Write != 0:
		return "wr"
	case m&Read != 0:
		return "rd"
	}
	return "none"
}

// Access is one declared object access of a task.
type Access struct {
	Obj  *Object
	Mode Mode
	// RequiredVersion is the object version the access operates on:
	// for a read, the version produced by the last write declared
	// before it in serial order; for a write, the version it starts
	// from (it produces RequiredVersion+1).
	RequiredVersion Version
}

// Writes reports whether the access mutates the object.
func (a Access) Writes() bool { return a.Mode&Write != 0 }

// Reads reports whether the access reads the object.
func (a Access) Reads() bool { return a.Mode&Read != 0 }

// TaskID identifies a task within one Runtime, in creation (serial
// program) order.
type TaskID int

// Task is one unit of deferred computation with a declared access
// specification. Platforms schedule enabled tasks onto processors.
type Task struct {
	ID       TaskID
	Accesses []Access
	// Body is the task's computation. It runs exactly once, after
	// every conflicting earlier task has completed.
	Body func()
	// Work is the task's compute cost in seconds on the reference
	// processor; machine models scale it by their processor speed.
	Work float64
	// Placed is the processor the programmer explicitly placed the
	// task on, or -1 for runtime scheduling.
	Placed int
	// Segments, when non-nil, makes this a staged task with multiple
	// synchronization points (see WithOnlyStaged); Body is nil and
	// Work is the summed segment work.
	Segments []Segment
}

// LocalityObject returns the task's locality object under the given
// policy: the object whose home/owner the scheduler should co-locate
// the task with. The paper's rule is "first declared access".
func (t *Task) LocalityObject(policy LocalityPolicy) *Object {
	if len(t.Accesses) == 0 {
		return nil
	}
	switch policy {
	case LocalityLargest:
		best := t.Accesses[0].Obj
		for _, a := range t.Accesses[1:] {
			if a.Obj.Size > best.Size {
				best = a.Obj
			}
		}
		return best
	case LocalityFirstWrite:
		for _, a := range t.Accesses {
			if a.Writes() {
				return a.Obj
			}
		}
		return t.Accesses[0].Obj
	default: // LocalityFirst
		return t.Accesses[0].Obj
	}
}

// LocalityPolicy selects how a task's locality object is chosen.
type LocalityPolicy int

const (
	// LocalityFirst is the paper's rule: the first object the task
	// declared it would access.
	LocalityFirst LocalityPolicy = iota
	// LocalityLargest picks the largest declared object (ablation).
	LocalityLargest
	// LocalityFirstWrite picks the first written object (ablation).
	LocalityFirstWrite
)

// TaskOpt configures WithOnly.
type TaskOpt func(*Task)

// PlaceOn explicitly places the task on processor p (the paper's "Task
// Placement" optimization level).
func PlaceOn(p int) TaskOpt {
	return func(t *Task) { t.Placed = p }
}
