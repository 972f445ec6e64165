package experiments

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"
)

func TestRunnerEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		r := NewRunner(workers)
		const n = 100
		var hits [n]atomic.Int32
		r.each(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times, want 1", workers, i, got)
			}
		}
	}
}

func TestRunnerEachZeroAndOne(t *testing.T) {
	r := NewRunner(4)
	r.each(0, func(i int) { t.Fatal("fn called for n=0") })
	calls := 0
	r.each(1, func(i int) { calls++ })
	if calls != 1 {
		t.Fatalf("n=1 ran fn %d times", calls)
	}
}

func TestRunnerEachPropagatesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("panic in a worker did not propagate to the caller")
		}
	}()
	NewRunner(4).each(16, func(i int) {
		if i == 7 {
			panic("boom")
		}
	})
}

func TestRunnerExecuteRunsOrderAndError(t *testing.T) {
	specs := []RunSpec{
		{App: "water", Machine: "dash", Procs: 2},
		{App: "ocean", Machine: "ipsc", Procs: 3},
		{App: "string", Machine: "cluster", Procs: 4},
	}
	runs, err := NewRunner(3).ExecuteRuns(specs, Small)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range specs {
		if runs[i].Procs != s.Procs {
			t.Fatalf("slot %d holds a %d-processor run, want %d (completion order leaked into results)", i, runs[i].Procs, s.Procs)
		}
	}

	bad := append(append([]RunSpec(nil), specs...), RunSpec{App: "nope", Machine: "dash"})
	if _, err := NewRunner(4).ExecuteRuns(bad, Small); err == nil || !strings.Contains(err.Error(), "unknown app") {
		t.Fatalf("bad spec error = %v", err)
	}
}

// TestSerialVsParallelReportsByteIdentical is the determinism
// acceptance test: serial and 8-wide parallel execution of the same
// request — including the full DefaultRunSpecs() jade-metrics/v1
// reports — must produce byte-identical documents.
func TestSerialVsParallelReportsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full default spec set twice")
	}
	cases := []struct {
		name  string
		ids   []string
		specs []RunSpec
	}{
		{"default runspecs only", nil, DefaultRunSpecs()},
		{"table sweep only", []string{"table2", "table7"}, nil},
		{"tables figures and runs", []string{"table2", "fig2", "sec5.1"}, DefaultRunSpecs()[:3]},
		{"overlapping views", []string{"table2", "fig2", "fig6", "table11", "table7"}, nil},
		{"ablations", []string{"ablation-steal", "extension-portability"}, nil},
		{"empty request", nil, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func(runner Runner) []byte {
				rep, err := runner.Report(tc.ids, tc.specs, Small)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := rep.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			if serial, parallel := build(NewRunner(1)), build(NewRunner(8)); !bytes.Equal(serial, parallel) {
				t.Fatalf("serial and parallel(8) documents differ (%d vs %d bytes)", len(serial), len(parallel))
			}
		})
	}
}

// TestRunDriversParallelMatchSerial pins the per-driver fan-out: each
// driver family's rendered table must be identical at width 1 and 8.
func TestRunDriversParallelMatchSerial(t *testing.T) {
	ids := []string{"table2", "table11", "fig2", "fig10", "sec5.4", "ablation-locality-policy", "utilization"}
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			render := func(runner Runner) string {
				res, _, err := runner.Execute([]string{id}, nil, Small)
				if err != nil {
					t.Fatal(err)
				}
				var sb strings.Builder
				res[0].Render(&sb)
				return sb.String()
			}
			if serial, parallel := render(NewRunner(1)), render(NewRunner(8)); serial != parallel {
				t.Fatalf("driver %s renders differently under parallel execution:\n--- serial ---\n%s\n--- parallel ---\n%s", id, serial, parallel)
			}
		})
	}
}
