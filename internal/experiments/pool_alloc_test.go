//go:build !race

package experiments

import (
	"fmt"
	"testing"

	"repro/internal/fault"
)

// TestPooledCellAllocations guards the cost of one warmed one-cell
// call: planning, a replay onto a pooled machine with the worker's
// reused runtime, and the copied-out run, but no machine construction
// and no per-run replay state. It covers every machine kind at both
// sizes, work-free cells, a fusion+coalescing cell and seeded-fault
// iPSC cells. The faulted cell must cost the same at 5% and at 20%
// loss: a retransmit is a handler over a recycled record, so nothing
// scales with the messages sent. Building the machines per call made
// 92–348 allocations for these cells; pooled machines with a fresh
// runtime, formatted cache and plan keys and slices regrown per run
// made 23–27, and a closure per retransmit 789–830 for the faulted
// cell. The race detector instruments allocation, so the test builds
// only without it.
func TestPooledCellAllocations(t *testing.T) {
	const bound = 8
	check := func(label string, s RunSpec) float64 {
		specs, r := []RunSpec{s}, NewRunner(1)
		got := testing.AllocsPerRun(20, func() {
			if _, err := r.ExecuteRuns(specs, Small); err != nil {
				panic(err)
			}
		})
		if got > bound {
			t.Errorf("%s: %.1f allocations per one-cell call, bound %d", label, got, bound)
		}
		return got
	}
	for _, machine := range []string{"dash", "ipsc", "pgas", "cluster"} {
		for _, procs := range []int{8, 32} {
			for _, workFree := range []bool{false, true} {
				check(fmt.Sprintf("%s at %d procs, work-free %t", machine, procs, workFree),
					RunSpec{App: "water", Machine: machine, Procs: procs, WorkFree: workFree})
			}
		}
	}
	check("ipsc fusion+coalescing", RunSpec{App: "cholesky", Machine: "ipsc", Procs: 8, Level: LevelLocality,
		WorkFree: true, Fusion: true, Coalescing: true})
	var faulted [2]float64
	for i, drop := range []float64{0.05, 0.2} {
		faulted[i] = check(fmt.Sprintf("ipsc at %g loss", drop), RunSpec{App: "ocean", Machine: "ipsc", Procs: 8,
			Level: LevelLocality, WorkFree: true, Fault: &fault.Spec{Seed: 7, DropPct: drop}})
	}
	if faulted[0] != faulted[1] {
		t.Errorf("faulted ipsc cell: %.1f allocations at 5%% loss, %.1f at 20%%: the retransmit path allocates per message",
			faulted[0], faulted[1])
	}
}
