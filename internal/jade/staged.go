package jade

import "fmt"

// This file implements the paper's "more advanced construct and
// additional access specification statements" (§2): tasks with
// multiple synchronization points. A staged task executes as a
// sequence of segments; at the end of each segment it can give up
// declared accesses early (Jade's no_rd/no_wr statements), enabling
// successor tasks before the task itself completes. §6 notes that the
// advanced constructs support pipelined access to objects — this is
// the mechanism.

// Segment is one stage of a staged task.
type Segment struct {
	// Work is the segment's compute cost in reference-processor
	// seconds.
	Work float64
	// Body is the segment's computation (may be nil).
	Body func()
	// Release lists objects whose declared accesses the task gives up
	// at the end of this segment. The task must not touch them in
	// later segments.
	Release []*Object
}

// WithOnlyStaged creates a task with multiple synchronization points.
// spec declares the union of all segments' accesses up front, exactly
// like WithOnly; each segment may then release objects early. The
// final segment implicitly releases everything still held.
func (rt *Runtime) WithOnlyStaged(spec func(*Spec), segs []Segment, opts ...TaskOpt) *Task {
	var s Spec
	spec(&s)
	return rt.WithStagedAccesses(s.accs, segs, opts...)
}

// WithStagedAccesses is the closure-free core of WithOnlyStaged: it
// creates a staged task from pre-built access and segment lists,
// taking ownership of both. The graph replayer uses it to re-issue
// captured staged tasks.
func (rt *Runtime) WithStagedAccesses(accs []Access, segs []Segment, opts ...TaskOpt) *Task {
	if len(segs) == 0 {
		panic("jade: staged task needs at least one segment")
	}
	var total float64
	for _, sg := range segs {
		total += sg.Work
	}
	t := rt.WithAccesses(accs, total, nil, opts...)
	// Validate releases against the declaration.
	declared := map[ObjectID]bool{}
	for _, a := range t.Accesses {
		declared[a.Obj.ID] = true
	}
	released := map[ObjectID]bool{}
	for _, sg := range segs {
		for _, o := range sg.Release {
			if !declared[o.ID] {
				panic(fmt.Sprintf("jade: staged task releases undeclared object %q", o.Name))
			}
			if released[o.ID] {
				panic(fmt.Sprintf("jade: staged task releases %q twice", o.Name))
			}
			released[o.ID] = true
		}
	}
	t.Segments = segs
	return t
}

// ReleaseEarly completes the task's declared access on o before the
// task finishes, returning the tasks newly enabled by the release.
// Platforms call it at each segment boundary's virtual time and
// schedule the returned tasks.
func (rt *Runtime) ReleaseEarly(t *Task, o *Object) []*Task {
	if rp := rt.rp; rp != nil {
		// The returned slice is scratch, valid until the next
		// completion — platforms consume it before scheduling on.
		return rp.completeOn(t, o)
	}
	return rt.sync.CompleteEntry(t, o)
}

// RunSegmentBody executes segment i's body (the first segment marks
// the task as executed); a work-free runtime runs none. Platforms call
// it at each segment's start.
func (rt *Runtime) RunSegmentBody(t *Task, i int) {
	if rp := rt.rp; rp != nil {
		if i == 0 {
			rp.markExecuted(t)
		}
		return
	}
	if i == 0 {
		if t.executed {
			panic(fmt.Sprintf("jade: staged task %d started twice", t.ID))
		}
		t.executed = true
	}
	if b := t.Segments[i].Body; b != nil && !rt.cfg.WorkFree {
		b()
	}
}

// AccessOn returns the task's declared access to o, if any.
func (t *Task) AccessOn(o *Object) (Access, bool) {
	for _, a := range t.Accesses {
		if a.Obj == o {
			return a, true
		}
	}
	return Access{}, false
}

// CompleteEntry marks the task's declaration on object o as finished
// and returns the tasks that newly became enabled, in task-ID order.
func (s *Synchronizer) CompleteEntry(t *Task, o *Object) []*Task {
	s.mu.Lock()
	defer s.mu.Unlock()

	var newly []*Task
	for _, e := range s.entries[t.ID] {
		if e.obj == o && !e.done {
			newly = s.finish(e, newly)
		}
	}
	sortTasksByID(newly)
	return newly
}
