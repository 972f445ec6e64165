package experiments

import (
	"encoding/json"
	"testing"

	"repro/internal/fault"
	"repro/internal/metrics"
)

// The registry's cell counts at Small: every cell the experiments read,
// and the distinct cells one Execute over IDs() runs. Of the 99 cells
// the four ablations and the granularity sweep read, 18 are Table 5's
// and Table 10's (the overlap rows below) and 81 are their own.
const (
	registryRequestedCells = 786
	registryDistinctCells  = 366
)

// TestPlanDeduplicatesRegistry checks the plan of the whole registry:
// its cells are pairwise distinct under planKey (variant cells share
// their JSON with the cell they vary), the views that read the same run
// map to the same plan slot, and executing the plan hands every view
// sharing a cell the identical *metrics.Run.
func TestPlanDeduplicatesRegistry(t *testing.T) {
	ids := IDs()
	p, err := newPlan(ids, nil, Small)
	if err != nil {
		t.Fatal(err)
	}
	seen, faults := map[planKey]bool{}, map[fault.Spec]int32{}
	for _, c := range p.cells {
		key := c.planKey(faults)
		if seen[key] {
			b, _ := json.Marshal(c)
			t.Fatalf("plan holds %s [%s] twice", b, c.Variant())
		}
		seen[key] = true
	}
	requested := 0
	for _, slots := range p.expSlots {
		requested += len(slots)
	}
	if requested != registryRequestedCells || len(p.cells) != registryDistinctCells {
		t.Errorf("plan: %d requested, %d distinct cells; want %d, %d",
			requested, len(p.cells), registryRequestedCells, registryDistinctCells)
	}

	at := map[string]int{}
	for k, id := range ids {
		at[id] = k
	}
	slots := func(id string, from, to int) []int { return p.expSlots[at[id]][from:to] }
	n := len(Procs)
	overlaps := []struct {
		name string
		a, b []int
	}{
		{"table2 = fig2", slots("table2", 0, 2*n), slots("fig2", 0, 2*n)},
		{"table2 = fig6", slots("table2", 0, 2*n), slots("fig6", 0, 2*n)},
		{"table7 top row = table11 adaptive broadcast", slots("table7", 0, n), slots("table11", 0, n)},
		{"table10 locality row = sec5.4 target tasks 1", slots("table10", n, 2*n), slots("sec5.4", 0, n)},
		{"table5 locality row = ablation-steal tail-steal row", slots("table5", n, 2*n), slots("ablation-steal", 0, n)},
		{"table10 locality row = ablation-locality-policy first-access row",
			slots("table10", n, 2*n), slots("ablation-locality-policy", 0, n)},
		// Procs is 1, 2, 4, 8, 16, 24, 32: 8 and 32 processors are
		// columns 3 and 6.
		{"table10 locality at 8 and 32 = ablation-ordering natural cells",
			[]int{slots("table10", n+3, n+4)[0], slots("table10", n+6, n+7)[0]}, slots("ablation-ordering", 0, 2)},
		{"ablation-ordering natural cells = ablation-panels fixed-width cells",
			slots("ablation-ordering", 0, 2), slots("ablation-panels", 0, 2)},
		// fault-sweep lists (with, without) per variant and drop rate;
		// variants 0 and 1 share Water's "with" cell.
		{"fault-sweep water with-cells", pairWith(slots("fault-sweep", 0, 2*len(faultDropRates))),
			pairWith(slots("fault-sweep", 2*len(faultDropRates), 4*len(faultDropRates)))},
	}
	for _, o := range overlaps {
		if len(o.a) != len(o.b) {
			t.Fatalf("%s: %d vs %d cells", o.name, len(o.a), len(o.b))
		}
		for i := range o.a {
			if o.a[i] != o.b[i] {
				t.Errorf("%s: cell %d at plan slots %d and %d", o.name, i, o.a[i], o.b[i])
			}
		}
	}

	// Execute the plan with every view's runs recorded: each distinct
	// cell yields one run, and views sharing a slot share the pointer.
	got := make([][]*metrics.Run, len(p.exps))
	for k, e := range p.exps {
		spy, k := *e, k
		spy.render = func(scale Scale, runs []*metrics.Run) *Result {
			got[k] = runs
			return e.render(scale, runs)
		}
		p.exps[k] = &spy
	}
	NewRunner(0).execute(&p, Small)
	bySlot := make([]*metrics.Run, len(p.cells))
	for k, runs := range got {
		for i, r := range runs {
			s := p.expSlots[k][i]
			if bySlot[s] == nil {
				bySlot[s] = r
			} else if bySlot[s] != r {
				t.Fatalf("%s cell %d: a second run for plan slot %d", ids[k], i, s)
			}
		}
	}
	for s, r := range bySlot {
		if r == nil {
			t.Fatalf("plan slot %d reached no view", s)
		}
	}
}

// pairWith keeps the "with" half of fault-sweep's (with, without) pairs.
func pairWith(slots []int) []int {
	var with []int
	for i := 0; i < len(slots); i += 2 {
		with = append(with, slots[i])
	}
	return with
}
