package trace

import (
	"strings"
	"testing"

	"repro/internal/obsv"
)

// record builds a trace from a stream of events.
func record(events ...obsv.Event) *Trace {
	tr := New()
	for _, e := range events {
		tr.Record(e)
	}
	return tr
}

func TestEventsSortedByTime(t *testing.T) {
	tr := record(
		obsv.Event{Kind: obsv.ExecStart, Task: 1, At: 2},
		obsv.Event{Kind: obsv.ExecEnd, Task: 1, At: 2, End: 3},
		obsv.Event{Kind: obsv.Created, Task: 1, At: 1},
	)
	ev := tr.Events()
	if len(ev) != 3 {
		t.Fatalf("got %d events, want created + exec-start + exec-end", len(ev))
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].At < ev[i-1].At {
			t.Fatalf("events out of order: %v", ev)
		}
	}
}

// Events formats each kind's detail from its typed fields and leaves
// out what the log does not show.
func TestEventsRenderDetails(t *testing.T) {
	tr := record(
		obsv.Event{Kind: obsv.Assigned, Task: 1, Proc: 2, N: 3, At: 1},
		obsv.Event{Kind: obsv.FetchStart, Task: 1, Proc: 2, N: 5, At: 2},
		obsv.Event{Kind: obsv.Fetch, Proc: 2, Obj: 4, Name: "grid", Bytes: 64, At: 2, End: 2.5},
		obsv.Event{Kind: obsv.FetchEnd, Task: 1, Proc: 2, At: 2, End: 3},
		obsv.Event{Kind: obsv.FetchEnd, Task: -1, At: 3, End: 3.5},
		obsv.Event{Kind: obsv.Mgmt, At: 3, End: 4},
		obsv.Event{Kind: obsv.Segment, Task: 2, Proc: 0, At: 4, End: 5},
		obsv.Event{Kind: obsv.ExecEnd, Task: 2, Proc: 0, At: 5, End: 5, Flag: true},
		obsv.Event{Kind: obsv.Broadcast, Task: 9, Proc: 2, Obj: 4, Name: "grid", Bytes: 64, N: 2, At: 6},
	)
	want := []Event{
		{1, obsv.Assigned, 1, 2, "target=p3"},
		{2, obsv.FetchStart, 1, 2, "5 objects"},
		{3, obsv.FetchEnd, 1, 2, ""},
		{5, obsv.ExecEnd, 2, 0, "staged"},
		{6, obsv.Broadcast, -1, 2, "grid v2 (64 bytes)"},
	}
	got := tr.Events()
	if len(got) != len(want) {
		t.Fatalf("rendered %d lines, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// Record stores nothing the log leaves out, so trace memory does not
// grow with object traffic or management work.
func TestRecordDropsUnshownKinds(t *testing.T) {
	tr := record(
		obsv.Event{Kind: obsv.Fetch, Proc: 2, Obj: 4, At: 2, End: 2.5},
		obsv.Event{Kind: obsv.FetchEnd, Task: -1, At: 3, End: 3.5},
		obsv.Event{Kind: obsv.Mgmt, At: 3, End: 4},
		obsv.Event{Kind: obsv.Segment, Task: 2, Proc: 0, At: 4, End: 5},
		obsv.Event{Kind: obsv.Delivery, N: 2, At: 5},
		obsv.Event{Kind: obsv.Reset},
	)
	if n := len(tr.events); n != 0 {
		t.Fatalf("stored %d unshown events: %+v", n, tr.events)
	}
}

func TestWriteLog(t *testing.T) {
	tr := record(obsv.Event{Kind: obsv.ExecStart, Task: 7, Proc: 2, At: 0.5, Flag: true})
	var sb strings.Builder
	tr.WriteLog(&sb)
	out := sb.String()
	for _, want := range []string{"exec-start", "t7", "p2", "stole=true"} {
		if !strings.Contains(out, want) {
			t.Fatalf("log missing %q: %s", want, out)
		}
	}
}

func TestGanttShowsSpans(t *testing.T) {
	tr := record(
		obsv.Event{Kind: obsv.ExecStart, Task: 0, Proc: 0, At: 0},
		obsv.Event{Kind: obsv.ExecEnd, Task: 0, Proc: 0, At: 0, End: 5},
		obsv.Event{Kind: obsv.ExecStart, Task: 1, Proc: 1, At: 5},
		obsv.Event{Kind: obsv.ExecEnd, Task: 1, Proc: 1, At: 5, End: 10},
	)
	var sb strings.Builder
	tr.Gantt(&sb, 40)
	out := sb.String()
	if !strings.Contains(out, "p0") || !strings.Contains(out, "p1") {
		t.Fatalf("gantt missing processor rows:\n%s", out)
	}
	if !strings.Contains(out, "0") || !strings.Contains(out, "1") {
		t.Fatalf("gantt missing task glyphs:\n%s", out)
	}
	// Task 0's span must occupy the left half of p0's row, task 1 the
	// right half of p1's row.
	lines := strings.Split(out, "\n")
	var p0, p1 string
	for _, l := range lines {
		if strings.HasPrefix(l, "p0") {
			p0 = l
		}
		if strings.HasPrefix(l, "p1") {
			p1 = l
		}
	}
	// Compare positions within the timeline area (after the '|'):
	// task 0 starts at the left edge; task 1 starts at mid-timeline.
	row0 := p0[strings.Index(p0, "|")+1:]
	row1 := p1[strings.Index(p1, "|")+1:]
	if strings.Index(row0, "0") != 0 {
		t.Fatalf("task 0 not at the left edge: %q", row0)
	}
	if i := strings.Index(row1, "1"); i < len(row1)/2-1 {
		t.Fatalf("task 1 starts at column %d, want mid-row: %q", i, row1)
	}
}

func TestGanttFetchWait(t *testing.T) {
	tr := record(
		obsv.Event{Kind: obsv.FetchStart, Task: 0, Proc: 1, N: 1, At: 0},
		obsv.Event{Kind: obsv.ExecStart, Task: 0, Proc: 1, At: 4},
		obsv.Event{Kind: obsv.ExecEnd, Task: 0, Proc: 1, At: 4, End: 8},
	)
	var sb strings.Builder
	tr.Gantt(&sb, 40)
	if !strings.Contains(sb.String(), ".") {
		t.Fatalf("gantt missing fetch-wait marks:\n%s", sb.String())
	}
}

func TestGanttEmpty(t *testing.T) {
	var sb strings.Builder
	New().Gantt(&sb, 40)
	if !strings.Contains(sb.String(), "empty") {
		t.Fatal("empty trace should say so")
	}
}
