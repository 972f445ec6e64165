// Package check validates recorded schedules against Jade's
// correctness contract: tasks whose access specifications conflict
// (they share an object and at least one writes it) must execute
// without overlap and in serial program order. It consumes the
// execution spans internal/trace renders from a machine's
// simulated-event stream, giving an independent end-to-end
// verification of the synchronizer + scheduler stack on any platform.
package check

import (
	"fmt"
	"sort"

	"repro/internal/jade"
	"repro/internal/obsv"
	"repro/internal/trace"
)

// Span is one task's execution interval.
type Span struct {
	Task       int
	Start, End float64
}

// Spans extracts per-task execution spans from a trace. A task split
// across several ExecStart/ExecEnd pairs (retries do not exist in
// this system) is rejected.
func Spans(tr *trace.Trace) (map[int]Span, error) {
	spans := map[int]Span{}
	open := map[int]float64{}
	for _, e := range tr.Events() {
		switch e.Kind {
		case obsv.ExecStart:
			if _, ok := open[e.Task]; ok {
				return nil, fmt.Errorf("check: task %d started twice", e.Task)
			}
			if _, ok := spans[e.Task]; ok {
				return nil, fmt.Errorf("check: task %d re-executed", e.Task)
			}
			open[e.Task] = e.At
		case obsv.ExecEnd:
			s, ok := open[e.Task]
			if !ok {
				return nil, fmt.Errorf("check: task %d ended without starting", e.Task)
			}
			delete(open, e.Task)
			spans[e.Task] = Span{Task: e.Task, Start: s, End: e.At}
		}
	}
	if len(open) > 0 {
		return nil, fmt.Errorf("check: %d tasks never finished", len(open))
	}
	return spans, nil
}

// conflict reports whether two tasks have a dependence: a shared
// object that at least one of them writes.
func conflict(a, b *jade.Task) bool {
	for _, aa := range a.Accesses {
		for _, ba := range b.Accesses {
			if aa.Obj == ba.Obj && (aa.Writes() || ba.Writes()) {
				return true
			}
		}
	}
	return false
}

// Validate checks every conflicting task pair for ordered,
// non-overlapping execution. Staged tasks (multiple synchronization
// points) are skipped: their early releases legitimately overlap
// successors. Every other task must have an exec span, timed or
// work-free.
func Validate(tr *trace.Trace, tasks []*jade.Task) error {
	spans, err := Spans(tr)
	if err != nil {
		return err
	}
	// Index tasks per object to avoid the quadratic all-pairs scan.
	byObj := map[jade.ObjectID][]*jade.Task{}
	for _, t := range tasks {
		if t.Segments != nil {
			continue
		}
		if _, ok := spans[int(t.ID)]; !ok {
			return fmt.Errorf("check: task %d has no exec span", t.ID)
		}
		for _, a := range t.Accesses {
			byObj[a.Obj.ID] = append(byObj[a.Obj.ID], t)
		}
	}
	for _, ts := range byObj {
		sort.Slice(ts, func(i, j int) bool { return ts[i].ID < ts[j].ID })
		for i := 0; i < len(ts); i++ {
			si := spans[int(ts[i].ID)]
			for j := i + 1; j < len(ts); j++ {
				if !conflict(ts[i], ts[j]) {
					continue
				}
				if sj := spans[int(ts[j].ID)]; sj.Start < si.End {
					return fmt.Errorf(
						"check: conflicting tasks %d and %d overlap: %d ends %.9f, %d starts %.9f",
						ts[i].ID, ts[j].ID, ts[i].ID, si.End, ts[j].ID, sj.Start)
				}
			}
		}
	}
	return nil
}
