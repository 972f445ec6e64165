package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/obsv"
)

// This file exports a Trace in the Chrome trace-event JSON format
// (the "JSON Array/Object Format" consumed by Perfetto and
// chrome://tracing): execution and fetch intervals become complete
// ("X") events on one timeline row per processor, and the scheduling
// lifecycle becomes instant ("i") events, so a run can be inspected
// visually at full zoom instead of through the ASCII Gantt.

// perfettoEvent is one entry of the traceEvents array.
type perfettoEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat,omitempty"`
	Ph   string                 `json:"ph"`
	Ts   float64                `json:"ts"` // microseconds
	Dur  float64                `json:"dur,omitempty"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	S    string                 `json:"s,omitempty"` // instant scope
	Args map[string]interface{} `json:"args,omitempty"`
}

// perfettoFile is the top-level JSON object.
type perfettoFile struct {
	TraceEvents     []perfettoEvent `json:"traceEvents"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
}

// usec converts virtual seconds to trace microseconds.
func usec(at float64) float64 { return at * 1e6 }

// schedulerTid is the synthetic thread that carries events with no
// processor (Proc < 0), e.g. obsv.Enabled on the shared-memory model.
const schedulerTid = 1000000

// WritePerfetto writes the trace in Chrome trace-event JSON. Exec and
// fetch spans are paired per (task, processor); unpaired starts (a
// truncated trace) are dropped rather than invented.
func WritePerfetto(w io.Writer, t *Trace) error {
	events := t.Events()
	out := perfettoFile{DisplayTimeUnit: "ms", TraceEvents: []perfettoEvent{}}

	tid := func(proc int) int {
		if proc < 0 {
			return schedulerTid
		}
		return proc
	}

	// Thread metadata: one named row per processor plus the scheduler.
	maxProc := -1
	hasScheduler := false
	for _, e := range events {
		if e.Proc > maxProc {
			maxProc = e.Proc
		}
		if e.Proc < 0 {
			hasScheduler = true
		}
	}
	for p := 0; p <= maxProc; p++ {
		out.TraceEvents = append(out.TraceEvents, perfettoEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: p,
			Args: map[string]interface{}{"name": fmt.Sprintf("proc %d", p)},
		})
	}
	if hasScheduler {
		out.TraceEvents = append(out.TraceEvents, perfettoEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: schedulerTid,
			Args: map[string]interface{}{"name": "scheduler"},
		})
	}

	taskName := func(task int) string {
		if task < 0 {
			return "system"
		}
		return fmt.Sprintf("task %d", task)
	}
	args := func(e Event) map[string]interface{} {
		if e.Detail == "" {
			return nil
		}
		return map[string]interface{}{"detail": e.Detail}
	}

	type key struct{ task, proc int }
	execOpen := map[key]Event{}
	fetchOpen := map[key]Event{}
	for _, e := range events {
		k := key{e.Task, e.Proc}
		switch e.Kind {
		case obsv.ExecStart:
			execOpen[k] = e
		case obsv.ExecEnd:
			if s, ok := execOpen[k]; ok {
				delete(execOpen, k)
				out.TraceEvents = append(out.TraceEvents, perfettoEvent{
					Name: taskName(e.Task), Cat: "exec", Ph: "X",
					Ts: usec(s.At), Dur: usec(e.At - s.At),
					Pid: 0, Tid: tid(e.Proc), Args: args(s),
				})
			}
		case obsv.FetchStart:
			fetchOpen[k] = e
		case obsv.FetchEnd:
			if s, ok := fetchOpen[k]; ok {
				delete(fetchOpen, k)
				out.TraceEvents = append(out.TraceEvents, perfettoEvent{
					Name: "fetch " + taskName(e.Task), Cat: "fetch", Ph: "X",
					Ts: usec(s.At), Dur: usec(e.At - s.At),
					Pid: 0, Tid: tid(e.Proc), Args: args(s),
				})
			}
		default:
			out.TraceEvents = append(out.TraceEvents, perfettoEvent{
				Name: e.Kind.String() + " " + taskName(e.Task), Cat: "lifecycle",
				Ph: "i", Ts: usec(e.At), Pid: 0, Tid: tid(e.Proc),
				S: "t", Args: args(e),
			})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}
