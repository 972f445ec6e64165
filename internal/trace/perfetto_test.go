package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/obsv"
)

// perfettoDoc mirrors the Chrome trace-event format for validation.
type perfettoDoc struct {
	TraceEvents []struct {
		Name string                 `json:"name"`
		Cat  string                 `json:"cat"`
		Ph   string                 `json:"ph"`
		Ts   float64                `json:"ts"`
		Dur  float64                `json:"dur"`
		Pid  *int                   `json:"pid"`
		Tid  *int                   `json:"tid"`
		Args map[string]interface{} `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func writeAndParse(t *testing.T, tr *Trace) *perfettoDoc {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var doc perfettoDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("perfetto output is not valid JSON: %v\n%s", err, buf.String())
	}
	return &doc
}

func TestWritePerfettoValidFormat(t *testing.T) {
	tr := record(
		obsv.Event{Kind: obsv.Created, Task: 0, Proc: 0, At: 0.0},
		obsv.Event{Kind: obsv.Assigned, Task: 0, Proc: 1, N: 1, At: 0.1},
		obsv.Event{Kind: obsv.FetchStart, Task: 0, Proc: 1, N: 2, At: 0.2},
		obsv.Event{Kind: obsv.FetchEnd, Task: 0, Proc: 1, At: 0.2, End: 0.3},
		obsv.Event{Kind: obsv.ExecStart, Task: 0, Proc: 1, At: 0.3},
		obsv.Event{Kind: obsv.ExecEnd, Task: 0, Proc: 1, At: 0.3, End: 0.5},
		obsv.Event{Kind: obsv.Broadcast, Proc: 1, Name: "grid", N: 2, Bytes: 8, At: 0.6},
	)

	doc := writeAndParse(t, tr)
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var exec, fetch, instants, meta int
	for _, e := range doc.TraceEvents {
		if e.Pid == nil || e.Tid == nil {
			t.Fatalf("event missing pid/tid: %+v", e)
		}
		switch e.Ph {
		case "X":
			if e.Dur < 0 || e.Ts < 0 {
				t.Fatalf("negative ts/dur: %+v", e)
			}
			if e.Cat == "exec" {
				exec++
			} else if e.Cat == "fetch" {
				fetch++
			}
		case "i":
			instants++
		case "M":
			meta++
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	if exec != 1 || fetch != 1 {
		t.Fatalf("exec=%d fetch=%d spans, want 1 each", exec, fetch)
	}
	// Created, Assigned, Broadcast.
	if instants != 3 {
		t.Fatalf("instants = %d, want 3", instants)
	}
	// proc 0, proc 1, scheduler (Broadcast has task -1 but proc 1;
	// scheduler row appears only for proc -1 events) → 2 thread names.
	if meta != 2 {
		t.Fatalf("meta = %d, want 2", meta)
	}
	// Timestamps are microseconds: the exec span starts at 0.3s = 3e5µs.
	for _, e := range doc.TraceEvents {
		if e.Cat == "exec" && e.Ts != 3e5 {
			t.Fatalf("exec ts = %v µs, want 3e5", e.Ts)
		}
	}
}

func TestWritePerfettoUnpairedAndSchedulerEvents(t *testing.T) {
	tr := record(
		obsv.Event{Kind: obsv.ExecStart, Task: 0, Proc: 0, At: 0.0}, // never ends: dropped
		obsv.Event{Kind: obsv.Enabled, Task: 1, Proc: -1, At: 0.1},
	)
	doc := writeAndParse(t, tr)
	sawScheduler := false
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			t.Fatalf("unpaired start produced a span: %+v", e)
		}
		if e.Ph == "M" && e.Args["name"] == "scheduler" {
			sawScheduler = true
		}
	}
	if !sawScheduler {
		t.Fatal("proc -1 events should land on a named scheduler row")
	}
}

func TestWritePerfettoEmpty(t *testing.T) {
	doc := writeAndParse(t, New())
	if doc.TraceEvents == nil {
		t.Fatal("traceEvents must be an array, not null")
	}
}
