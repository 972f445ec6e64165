package metrics

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/obsv"
)

func TestUtilizationUnclamped(t *testing.T) {
	// Busy time exceeding ExecTime is an accounting bug; the raw ratio
	// must be reported, not silently clamped to 1.
	r := &Run{ExecTime: 2, ProcBusy: []float64{1, 3}}
	u := r.Utilization()
	if u[0] != 0.5 {
		t.Fatalf("u[0] = %v, want 0.5", u[0])
	}
	if u[1] != 1.5 {
		t.Fatalf("u[1] = %v, want 1.5 (unclamped)", u[1])
	}
	if (&Run{ProcBusy: []float64{1}}).Utilization() != nil {
		t.Fatal("zero ExecTime should report nil")
	}
}

func TestOverBusy(t *testing.T) {
	r := &Run{ExecTime: 2, ProcBusy: []float64{1, 3, 2, 2.0000000000001}}
	got := r.OverBusy()
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("OverBusy = %v, want [1]", got)
	}
	ok := &Run{ExecTime: 2, ProcBusy: []float64{2, 1.9}}
	if bad := ok.OverBusy(); len(bad) != 0 {
		t.Fatalf("healthy run flagged over-busy: %v", bad)
	}
}

func TestReportJSONSchema(t *testing.T) {
	obs := obsv.New(2)
	obs.Record(obsv.Event{Kind: obsv.Fetch, Class: obsv.Replica, Obj: 3, Name: "grid", Bytes: 4096, End: 1e-4})
	obs.Record(obsv.Event{Kind: obsv.FetchEnd, At: 1e-4, End: 3e-4})
	r := &Run{
		Procs: 2, ExecTime: 1.5, TaskCount: 10, TasksOnTarget: 9,
		TaskExecTotal: 2.5, MsgBytes: 1e6, MsgCount: 7,
		ProcBusy: []float64{1.2, 1.0}, Obsv: obs.Snapshot(5),
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, buf.String())
	}
	if m["schema"] != Schema {
		t.Fatalf("schema = %v, want %q", m["schema"], Schema)
	}
	for _, key := range []string{"procs", "exec_time_sec", "task_count",
		"locality_pct", "msg_bytes", "utilization", "observability"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("report missing key %q:\n%s", key, buf.String())
		}
	}
	o := m["observability"].(map[string]interface{})
	hot := o["hot_objects"].([]interface{})
	if len(hot) != 1 || hot[0].(map[string]interface{})["name"] != "grid" {
		t.Fatalf("hot_objects wrong: %v", o["hot_objects"])
	}
	fl := o["fetch_latency"].(map[string]interface{})
	for _, key := range []string{"count", "p50_sec", "p95_sec", "max_sec"} {
		if _, ok := fl[key]; !ok {
			t.Fatalf("fetch_latency missing %q", key)
		}
	}
}

func TestLocalityPct(t *testing.T) {
	r := &Run{TaskCount: 8, TasksOnTarget: 6}
	if got := r.LocalityPct(); got != 75 {
		t.Fatalf("LocalityPct = %v, want 75", got)
	}
	empty := &Run{}
	if empty.LocalityPct() != 0 {
		t.Fatal("empty run should report 0")
	}
}

func TestCommCompRatio(t *testing.T) {
	r := &Run{MsgBytes: 2e6, TaskExecTotal: 4}
	if got := r.CommCompRatio(); got != 0.5 {
		t.Fatalf("CommCompRatio = %v, want 0.5", got)
	}
	if (&Run{MsgBytes: 5}).CommCompRatio() != 0 {
		t.Fatal("zero compute should report 0")
	}
}

func TestObjectToTaskLatencyRatio(t *testing.T) {
	r := &Run{ObjectLatency: 3, TaskLatency: 2}
	if got := r.ObjectToTaskLatencyRatio(); got != 1.5 {
		t.Fatalf("ratio = %v, want 1.5", got)
	}
	if (&Run{ObjectLatency: 1}).ObjectToTaskLatencyRatio() != 0 {
		t.Fatal("zero task latency should report 0")
	}
}

// TestWriteJSONAllocations keeps reflection out of the per-run report:
// into a warmed buffer, WriteJSON of a run without observability
// allocates nothing, not even the utilization array it encodes.
func TestWriteJSONAllocations(t *testing.T) {
	r := &Run{
		Procs: 4, ExecTime: 2, TaskCount: 10, TasksOnTarget: 7,
		TaskExecTotal: 5.5, MsgBytes: 1 << 20, MsgCount: 42, MsgDropped: 3,
		AggregatedMsgs: 2, ObjectLatency: 1e-7, TaskLatency: 0.25,
		ProcBusy: []float64{1, 1.5, 0.5, 2},
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf.Reset()
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("WriteJSON allocates %v times per report, want 0", allocs)
	}
}
