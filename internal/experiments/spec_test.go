package experiments

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestRunSpecCanonicalizeDefaults(t *testing.T) {
	s := RunSpec{App: "Ocean", Machine: "DASH"}
	if err := s.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if s.App != "ocean" || s.Machine != "dash" {
		t.Fatalf("names not lowercased: %+v", s)
	}
	if s.Procs != instrumentedProcs {
		t.Fatalf("Procs = %d, want default %d", s.Procs, instrumentedProcs)
	}
	if s.Level != LevelPlacement {
		t.Fatalf("Level = %q, want default %q for a placement app", s.Level, LevelPlacement)
	}

	w := RunSpec{App: "water", Machine: "ipsc"}
	if err := w.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if w.Level != LevelLocality {
		t.Fatalf("Level = %q, want %q for a non-placement app", w.Level, LevelLocality)
	}

	// The tomo alias canonicalizes to the same bytes as "string".
	a := RunSpec{App: "tomo", Machine: "ipsc"}
	b := RunSpec{App: "string", Machine: "ipsc"}
	if err := a.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if err := b.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("alias canonical forms differ: %s vs %s", aj, bj)
	}
}

func TestRunSpecRejectsInvalid(t *testing.T) {
	cases := []struct {
		name string
		spec RunSpec
		want string
	}{
		{"unknown app", RunSpec{App: "barnes", Machine: "dash"}, "unknown app"},
		{"unknown machine", RunSpec{App: "water", Machine: "cm5"}, "unknown machine"},
		{"unknown level", RunSpec{App: "water", Machine: "dash", Level: "max"}, "unknown level"},
		{"placement unsupported", RunSpec{App: "water", Machine: "dash", Level: "placement"}, "no explicit placement"},
		{"procs out of range", RunSpec{App: "water", Machine: "dash", Procs: 1000}, "out of range"},
		{"ipsc toggle on dash", RunSpec{App: "water", Machine: "dash", EagerUpdate: true}, "only to the ipsc"},
		{"cluster level", RunSpec{App: "water", Machine: "cluster", Level: "locality"}, "no locality levels"},
		{"speed_aware on ipsc", RunSpec{App: "water", Machine: "ipsc", SpeedAware: true}, "only to the cluster"},
		{"fusion without work_free", RunSpec{App: "water", Machine: "ipsc", Fusion: true}, "requires work_free"},
		{"coalescing on dash", RunSpec{App: "water", Machine: "dash", Coalescing: true}, "only to the ipsc"},
		{"coalescing on cluster", RunSpec{App: "water", Machine: "cluster", Coalescing: true}, "only to the ipsc"},
	}
	for _, tc := range cases {
		err := tc.spec.Canonicalize()
		if err == nil {
			t.Errorf("%s: Canonicalize accepted %+v", tc.name, tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestGranularityKnobsCanonicalBytesDistinct proves the granularity
// knobs are part of the cache identity: specs differing only in Fusion
// or Coalescing must canonicalize to distinct bytes, or jaded's result
// cache would serve an optimized run for an unoptimized spec (and vice
// versa).
func TestGranularityKnobsCanonicalBytesDistinct(t *testing.T) {
	specs := []RunSpec{
		{App: "water", Machine: "ipsc", WorkFree: true},
		{App: "water", Machine: "ipsc", WorkFree: true, Fusion: true},
		{App: "water", Machine: "ipsc", WorkFree: true, Coalescing: true},
		{App: "water", Machine: "ipsc", WorkFree: true, Fusion: true, Coalescing: true},
	}
	seen := map[string]RunSpec{}
	for _, s := range specs {
		if err := s.Canonicalize(); err != nil {
			t.Fatalf("Canonicalize %+v: %v", s, err)
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[string(b)]; dup {
			t.Fatalf("specs %+v and %+v share canonical bytes %s", prev, s, b)
		}
		seen[string(b)] = s
	}
}

func TestRunSpecExecuteDeterministic(t *testing.T) {
	spec := RunSpec{App: "water", Machine: "ipsc", Procs: 4, Level: LevelLocality}
	r1, err := spec.Execute(Small)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := spec.Execute(Small)
	if err != nil {
		t.Fatal(err)
	}
	if r1.ExecTime <= 0 {
		t.Fatalf("ExecTime = %v, want > 0", r1.ExecTime)
	}
	if r1.ExecTime != r2.ExecTime || r1.TaskCount != r2.TaskCount || r1.MsgBytes != r2.MsgBytes {
		t.Fatalf("repeated execution diverged: %+v vs %+v", r1, r2)
	}
}

func TestRunSpecExecuteAllMachines(t *testing.T) {
	for _, machine := range []string{"dash", "ipsc", "cluster"} {
		spec := RunSpec{App: "ocean", Machine: machine, Procs: 4}
		r, err := spec.Execute(Small)
		if err != nil {
			t.Fatalf("%s: %v", machine, err)
		}
		if r.ExecTime <= 0 || r.TaskCount == 0 {
			t.Fatalf("%s: empty run: %+v", machine, r)
		}
	}
}

func TestRunSpecObserve(t *testing.T) {
	spec := RunSpec{App: "water", Machine: "ipsc", Procs: 4, Observe: true}
	rep, err := BuildReportWithRuns(nil, []RunSpec{spec}, Small)
	if err != nil {
		t.Fatal(err)
	}
	ir := rep.Runs[0]
	if ir.Metrics == nil || ir.Metrics.Observability == nil {
		t.Fatal("Observe: true produced no observability section")
	}
	if ir.App != "water" || ir.Machine != "ipsc" || ir.Level != LevelLocality {
		t.Fatalf("instrumented run mislabeled: %+v", ir)
	}
}

func TestDefaultRunSpecsShape(t *testing.T) {
	specs := DefaultRunSpecs()
	if len(specs) != len(allApps)*2+3 {
		t.Fatalf("len = %d, want %d", len(specs), len(allApps)*2+3)
	}
	for _, s := range specs {
		if err := s.Canonicalize(); err != nil {
			t.Fatalf("default spec invalid: %+v: %v", s, err)
		}
		if !s.Observe {
			t.Fatalf("default spec not observed: %+v", s)
		}
	}
}

func TestParseScale(t *testing.T) {
	if _, err := ParseScale("small"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseScale("paper"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("ParseScale accepted \"huge\"")
	}
}
