// Package trace is the event-log consumer of the machine models'
// simulated-event stream (internal/obsv): it stores a run's events and
// renders them as an event log, a per-processor ASCII Gantt chart or
// Perfetto JSON, and hands internal/check the execution spans it
// validates. It exists for debugging schedules and for inspecting how
// the communication optimizations change a run — the visual
// counterpart of the metrics package.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"repro/internal/obsv"
)

// Event is one line of the rendered event log: an instant, or one end
// of a span.
type Event struct {
	At     float64 // virtual seconds
	Kind   obsv.Kind
	Task   int // task ID, -1 if not task-related
	Proc   int // processor, -1 if unknown
	Detail string
}

// Trace stores a run's event stream. Safe for concurrent use.
type Trace struct {
	mu     sync.Mutex
	events []obsv.Event
}

// New returns an empty trace.
func New() *Trace { return &Trace{} }

// Record implements obsv.Sink. It keeps only the kinds the log shows:
// per-object fetches, segments, management spans, deliveries, resets
// and the main program's fetches are dropped here.
func (t *Trace) Record(e obsv.Event) {
	switch e.Kind {
	case obsv.Created, obsv.Enabled, obsv.Assigned, obsv.FetchStart,
		obsv.ExecStart, obsv.ExecEnd, obsv.Broadcast:
	case obsv.FetchEnd:
		if e.Task < 0 {
			return
		}
	default:
		return
	}
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Events renders the stored stream as log lines in time order; equal
// times keep emission order. Detail strings are formatted here, so
// recording stays allocation-free.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	var out []Event
	line := func(at float64, k obsv.Kind, e obsv.Event, detail string) {
		out = append(out, Event{At: at, Kind: k, Task: e.Task, Proc: e.Proc, Detail: detail})
	}
	for _, e := range t.events {
		switch e.Kind {
		case obsv.Created, obsv.Enabled:
			line(e.At, e.Kind, e, "")
		case obsv.Assigned:
			line(e.At, e.Kind, e, fmt.Sprintf("target=p%d", e.N))
		case obsv.FetchStart:
			line(e.At, e.Kind, e, fmt.Sprintf("%d objects", e.N))
		case obsv.FetchEnd:
			line(e.End, e.Kind, e, "")
		case obsv.ExecStart:
			line(e.At, e.Kind, e, fmt.Sprintf("stole=%v", e.Flag))
		case obsv.ExecEnd:
			detail := ""
			if e.Flag {
				detail = "staged"
			}
			line(e.End, e.Kind, e, detail)
		case obsv.Broadcast:
			e.Task = -1
			line(e.At, e.Kind, e, fmt.Sprintf("%s v%d (%d bytes)", e.Name, e.N, e.Bytes))
		}
	}
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// WriteLog writes the raw event log.
func (t *Trace) WriteLog(w io.Writer) {
	for _, e := range t.Events() {
		task := "-"
		if e.Task >= 0 {
			task = fmt.Sprintf("t%d", e.Task)
		}
		proc := "-"
		if e.Proc >= 0 {
			proc = fmt.Sprintf("p%d", e.Proc)
		}
		fmt.Fprintf(w, "%12.6fs  %-12s %-6s %-4s %s\n", e.At, e.Kind, task, proc, e.Detail)
	}
}

// span is an execution interval on a processor.
type span struct {
	start, end float64
	task       int
}

// Gantt renders a per-processor timeline of task execution spans.
// Each row is one processor; digits/letters identify tasks modulo 36;
// '.' marks fetch waiting recorded between FetchStart and ExecStart.
func (t *Trace) Gantt(w io.Writer, width int) {
	if width <= 0 {
		width = 96
	}
	events := t.Events()
	if len(events) == 0 {
		fmt.Fprintln(w, "(empty trace)")
		return
	}
	var maxT float64
	maxProc := 0
	starts := map[[2]int]float64{} // {task, proc} -> exec start
	fetches := map[[2]int]float64{}
	spans := map[int][]span{}
	fetchSpans := map[int][]span{}
	for _, e := range events {
		if e.At > maxT {
			maxT = e.At
		}
		if e.Proc > maxProc {
			maxProc = e.Proc
		}
		key := [2]int{e.Task, e.Proc}
		switch e.Kind {
		case obsv.FetchStart:
			fetches[key] = e.At
		case obsv.ExecStart:
			starts[key] = e.At
			if f, ok := fetches[key]; ok {
				fetchSpans[e.Proc] = append(fetchSpans[e.Proc], span{f, e.At, e.Task})
				delete(fetches, key)
			}
		case obsv.ExecEnd:
			if s, ok := starts[key]; ok {
				spans[e.Proc] = append(spans[e.Proc], span{s, e.At, e.Task})
				delete(starts, key)
			}
		}
	}
	if maxT == 0 {
		maxT = 1
	}
	col := func(at float64) int {
		c := int(at / maxT * float64(width-1))
		if c >= width {
			c = width - 1
		}
		return c
	}
	glyph := func(task int) byte {
		const alphabet = "0123456789abcdefghijklmnopqrstuvwxyz"
		return alphabet[task%len(alphabet)]
	}
	fmt.Fprintf(w, "gantt: %d processors, %.6fs total, one column = %.2gs\n",
		maxProc+1, maxT, maxT/float64(width))
	for p := 0; p <= maxProc; p++ {
		row := []byte(strings.Repeat(" ", width))
		for _, s := range fetchSpans[p] {
			for c := col(s.start); c <= col(s.end); c++ {
				row[c] = '.'
			}
		}
		for _, s := range spans[p] {
			g := glyph(s.task)
			for c := col(s.start); c <= col(s.end); c++ {
				row[c] = g
			}
		}
		fmt.Fprintf(w, "p%-3d |%s|\n", p, string(row))
	}
}
