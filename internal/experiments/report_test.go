package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestBenchReportJSON is the acceptance check for jadebench -json: the
// emitted document must carry the stable schema tag, every selected
// experiment table, and instrumented runs whose observability section
// has per-object hot stats and fetch-latency percentiles.
func TestBenchReportJSON(t *testing.T) {
	rep, err := BuildReport([]string{"table4"}, Small)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		Schema      string `json:"schema"`
		Scale       string `json:"scale"`
		Experiments []struct {
			ID   string     `json:"id"`
			Head []string   `json:"head"`
			Rows [][]string `json:"rows"`
		} `json:"experiments"`
		Runs []struct {
			App     string `json:"app"`
			Machine string `json:"machine"`
			Procs   int    `json:"procs"`
			Metrics struct {
				Schema        string `json:"schema"`
				Observability *struct {
					HotObjects []struct {
						Name    string `json:"name"`
						Bytes   int64  `json:"bytes"`
						Fetches int64  `json:"fetches"`
					} `json:"hot_objects"`
					ObjectCount  int `json:"object_count"`
					FetchLatency struct {
						Count  int64   `json:"count"`
						P50Sec float64 `json:"p50_sec"`
						P95Sec float64 `json:"p95_sec"`
					} `json:"fetch_latency"`
					TaskWait struct {
						Count int64 `json:"count"`
					} `json:"task_wait"`
				} `json:"observability"`
			} `json:"metrics"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if doc.Schema != BenchSchema {
		t.Fatalf("schema = %q, want %q", doc.Schema, BenchSchema)
	}
	if doc.Scale != "small" {
		t.Fatalf("scale = %q", doc.Scale)
	}
	if len(doc.Experiments) != 1 || doc.Experiments[0].ID != "table4" {
		t.Fatalf("experiments = %+v", doc.Experiments)
	}
	if len(doc.Experiments[0].Rows) == 0 {
		t.Fatal("experiment table has no rows")
	}
	// 4 apps × 2 machines, plus SpMV on all three machines.
	if len(doc.Runs) != len(allApps)*2+3 {
		t.Fatalf("runs = %d, want %d", len(doc.Runs), len(allApps)*2+3)
	}
	for _, r := range doc.Runs {
		ob := r.Metrics.Observability
		if ob == nil {
			t.Fatalf("%s/%s: run has no observability section", r.App, r.Machine)
		}
		if len(ob.HotObjects) == 0 || ob.ObjectCount == 0 {
			t.Fatalf("%s/%s: no hot objects recorded", r.App, r.Machine)
		}
		if ob.HotObjects[0].Bytes <= 0 || ob.HotObjects[0].Name == "" {
			t.Fatalf("%s/%s: malformed hot object %+v", r.App, r.Machine, ob.HotObjects[0])
		}
		if ob.FetchLatency.Count == 0 || ob.FetchLatency.P95Sec <= 0 {
			t.Fatalf("%s/%s: fetch latency distribution empty: %+v", r.App, r.Machine, ob.FetchLatency)
		}
		if ob.FetchLatency.P50Sec > ob.FetchLatency.P95Sec {
			t.Fatalf("%s/%s: p50 > p95", r.App, r.Machine)
		}
	}
}

// TestExperimentTablesUnchangedByObserver guards against the
// instrumented runs leaking state into the observer-free sweeps: the
// same experiment must produce identical rows before and after
// instrumented runs execute.
func TestExperimentTablesUnchangedByObserver(t *testing.T) {
	before, err := Run("table4", Small)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildReportWithRuns(nil, DefaultRunSpecs(), Small); err != nil {
		t.Fatal(err)
	}
	after, err := Run("table4", Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Rows) != len(after.Rows) {
		t.Fatalf("row count changed: %d vs %d", len(before.Rows), len(after.Rows))
	}
	for i := range before.Rows {
		for j := range before.Rows[i] {
			if before.Rows[i][j] != after.Rows[i][j] {
				t.Fatalf("row %d col %d changed: %q vs %q", i, j, before.Rows[i][j], after.Rows[i][j])
			}
		}
	}
}
