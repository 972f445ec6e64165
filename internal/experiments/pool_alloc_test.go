//go:build !race

package experiments

import "testing"

// TestPooledCellAllocations guards the cost of one warmed one-cell
// call: planning, a replay onto a pooled machine and the copied-out
// run, but no machine construction, on every machine kind and at both
// sizes. Building the machines per call made 92–348 allocations for
// these cells, growing with the processor count. The race detector
// instruments allocation, so the test builds only without it.
func TestPooledCellAllocations(t *testing.T) {
	const bound = 40
	for _, machine := range []string{"dash", "ipsc", "pgas", "cluster"} {
		for _, procs := range []int{8, 32} {
			specs := []RunSpec{{App: "water", Machine: machine, Procs: procs}}
			r := NewRunner(1)
			got := testing.AllocsPerRun(20, func() {
				if _, err := r.ExecuteRuns(specs, Small); err != nil {
					panic(err)
				}
			})
			if got > bound {
				t.Errorf("%s at %d procs: %.1f allocations per one-cell call, bound %d", machine, procs, got, bound)
			}
		}
	}
}
