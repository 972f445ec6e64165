package jade

import (
	"fmt"
	"slices"
)

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
// creates a staged task from pre-built access and segment lists, taking
// ownership of both. Graph replay does not come through here: it
// announces planned tasks, segments included, with ReplayTask. The
// releases are checked against the declaration before the task is
// registered, so the platform is told of valid staged tasks only, with
// their segments attached.
func (rt *Runtime) WithStagedAccesses(accs []Access, segs []Segment, opts ...TaskOpt) *Task {
	if len(segs) == 0 {
		panic("jade: staged task needs at least one segment")
	}
	var total float64
	for _, sg := range segs {
		total += sg.Work
		for _, o := range sg.Release {
			if !slices.ContainsFunc(accs, func(a Access) bool { return a.Obj == o }) {
				panic(fmt.Sprintf("jade: staged task releases undeclared object %q", o.Name))
			}
			if releases(segs, o) > 1 {
				panic(fmt.Sprintf("jade: staged task releases %q twice", o.Name))
			}
		}
	}
	return rt.create(accs, total, nil, segs, opts)
}

// releases counts the segments' releases of o.
func releases(segs []Segment, o *Object) (n int) {
	for _, sg := range segs {
		for _, r := range sg.Release {
			if r == o {
				n++
			}
		}
	}
	return n
}

// ReleaseEarly completes the task's declared access on o before the
// task finishes and notifies the platform of each newly enabled task,
// like TaskDone. Platforms call it at each segment boundary's virtual
// time.
func (rt *Runtime) ReleaseEarly(t *Task, o *Object) {
	for _, n := range rt.sync.CompleteEntry(t, o) {
		rt.platform.TaskEnabled(n)
	}
}

// RunSegmentBody executes segment i's body; a work-free runtime runs
// none. Platforms call it at each segment's start.
func (rt *Runtime) RunSegmentBody(t *Task, i int) {
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
