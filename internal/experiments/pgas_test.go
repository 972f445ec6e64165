package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
)

// The capture-under-fault guarantee TestGraphReplayFaultedRuns pins for
// the paper machines, on PGAS.
func TestPgasGraphReplayFaultedRuns(t *testing.T) { captureUnderFault(t, faultedSpecs()[2:]) }

// The machine name and the aggregation toggle must both reach the
// canonical spec bytes — they are the jaded cache key, so a pgas run
// must never collide with a dash run of the same app.
func TestPgasSpecCanonicalBytesDistinct(t *testing.T) {
	off := false
	specs := []RunSpec{
		{App: "spmv", Machine: "dash"},
		{App: "spmv", Machine: "ipsc"},
		{App: "spmv", Machine: "pgas"},
		{App: "spmv", Machine: "pgas", Aggregation: &off},
	}
	seen := map[string]int{}
	for i, s := range specs {
		if err := s.Canonicalize(); err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if j, dup := seen[string(b)]; dup {
			t.Fatalf("specs %d and %d share canonical bytes %s", j, i, b)
		}
		seen[string(b)] = i
	}
}

// TestPgasReportDeterministic pins the jade-pgas/v1 document: two
// builds at any parallelism must be byte-identical, the grid must
// cover every app on every machine, and the SpMV aggregation study
// must show the coalescing layer winning on message count while
// leaving every regular app untouched.
func TestPgasReportDeterministic(t *testing.T) {
	build := func() []byte {
		rep, err := BuildPgasReport(Runner{}, Small)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := build()
	b := build()
	if !bytes.Equal(a, b) {
		t.Fatal("jade-pgas/v1 document differs between builds")
	}

	var rep PgasReport
	if err := json.Unmarshal(a, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != PgasSchema {
		t.Fatalf("schema = %q, want %q", rep.Schema, PgasSchema)
	}
	apps := len(allApps) + 1
	if len(rep.Cells) != apps*len(pgasMachines) {
		t.Fatalf("cells = %d, want %d", len(rep.Cells), apps*len(pgasMachines))
	}
	cover := map[string]bool{}
	for _, c := range rep.Cells {
		cover[c.App+"/"+c.Machine] = true
		if c.ExecTimeSec <= 0 {
			t.Fatalf("%s/%s: exec_time_sec = %v", c.App, c.Machine, c.ExecTimeSec)
		}
		if c.Machine != "pgas" && (c.RemoteGets != 0 || c.AggregatedMsgs != 0) {
			t.Fatalf("%s/%s: PGAS counters leaked onto a non-PGAS machine: %+v", c.App, c.Machine, c)
		}
	}
	for _, a := range pgasApps() {
		for _, m := range pgasMachines {
			if !cover[a.key+"/"+m] {
				t.Fatalf("grid missing %s/%s", a.key, m)
			}
		}
	}
	agg := rep.SpMVAggregation
	if agg.MsgCountOn >= agg.MsgCountOff {
		t.Fatalf("aggregation did not reduce SpMV messages: on=%d off=%d", agg.MsgCountOn, agg.MsgCountOff)
	}
	if agg.AggregatedMsgs == 0 || agg.AggBenefitBytes <= 0 {
		t.Fatalf("aggregation counters empty: %+v", agg)
	}
	if len(agg.NeutralApps) != len(allApps) {
		t.Fatalf("neutral apps = %v, want all %d regular apps", agg.NeutralApps, len(allApps))
	}
	if len(rep.Transfers) == 0 {
		t.Fatal("no transfer rows")
	}
	anyTransfers := false
	for _, tr := range rep.Transfers {
		if tr.Transfers {
			anyTransfers = true
		}
	}
	if !anyTransfers {
		t.Fatal("no optimization transfers anywhere — comparison is vacuous")
	}
}
