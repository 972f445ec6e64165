package check

import (
	"fmt"

	"repro/internal/obsv"
	"repro/internal/trace"
)

// lifecycleOrder is the per-task event sequence every machine model
// must respect. Not every model emits every kind (the shared-memory
// model has no Assigned, the message-passing models have no Enabled),
// so absent kinds are simply skipped.
var lifecycleOrder = []obsv.Kind{obsv.Created, obsv.Enabled, obsv.Assigned, obsv.ExecStart, obsv.ExecEnd}

// EventOrdering verifies the per-task lifecycle invariant
// created ≤ enabled ≤ assigned ≤ exec-start ≤ exec-end on the
// recorded trace. Of a kind a task emits more than once, the first
// occurrence counts, except exec-end, of which the last does.
func EventOrdering(tr *trace.Trace) error {
	marks := map[int]map[obsv.Kind]float64{}
	for _, e := range tr.Events() {
		if e.Task < 0 {
			continue
		}
		m, ok := marks[e.Task]
		if !ok {
			m = map[obsv.Kind]float64{}
			marks[e.Task] = m
		}
		if at, seen := m[e.Kind]; !seen || e.Kind == obsv.ExecEnd && e.At > at {
			m[e.Kind] = e.At
		}
	}
	for task, m := range marks {
		prevAt, prevKind, started := 0.0, obsv.Kind(0), false
		for _, k := range lifecycleOrder {
			at, ok := m[k]
			if !ok {
				continue
			}
			if started && at < prevAt {
				return fmt.Errorf(
					"check: task %d lifecycle out of order: %s at %.9f before %s at %.9f",
					task, k, at, prevKind, prevAt)
			}
			prevAt, prevKind, started = at, k, true
		}
	}
	return nil
}
