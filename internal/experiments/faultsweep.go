package experiments

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/table"
)

// faultDropRates is the message-loss sweep of the degradation study:
// from a healthy network to a badly lossy one.
var faultDropRates = []float64{0, 0.02, 0.05, 0.10, 0.20}

// faultSweepSeed pins the injector seed so the study is reproducible.
const faultSweepSeed = 1995

func init() {
	register("fault-sweep",
		"Degradation Sweep: optimization benefit under message loss (iPSC/860, 8 processors)",
		faultSweepCells, faultSweep)
}

// faultVariant pairs a run with an optimization against the same run
// without it; the benefit is the execution-time difference. The specs
// name the app and toggles; faultCell places them on the machine.
type faultVariant struct {
	name          string
	with, without RunSpec
}

func faultVariants() []faultVariant {
	off := false
	water := RunSpec{App: "water", Level: LevelLocality}
	return []faultVariant{
		{"locality scheduling (Water)", water, RunSpec{App: "water", Level: LevelNone}},
		{"adaptive broadcast (Water)", water, RunSpec{App: "water", Level: LevelLocality, AdaptiveBroadcast: &off}},
		{"locality scheduling (Ocean)", RunSpec{App: "ocean", Level: LevelLocality}, RunSpec{App: "ocean", Level: LevelNone}},
		// The granularity knobs under loss. SpMV is the one app whose
		// tasks gather several remote objects per communication point,
		// so it is where coalescing has batches to build — and where a
		// dropped coalesced message loses a whole batch that the
		// retransmit protocol then resends whole.
		{"message coalescing (SpMV)",
			RunSpec{App: "spmv", Level: LevelLocality, Coalescing: true}, RunSpec{App: "spmv", Level: LevelLocality}},
		// Cholesky is the one paper app with serially dependent
		// consecutive task chains for fusion to collapse. Fusion needs a
		// replayable graph, so its pair runs stripped (work-free): the
		// benefit measured is pure management and communication time.
		{"task fusion (Cholesky, stripped)",
			RunSpec{App: "cholesky", Level: LevelLocality, WorkFree: true, Fusion: true},
			RunSpec{App: "cholesky", Level: LevelLocality, WorkFree: true}},
	}
}

// faultSpecAt returns the spec's fault block for one drop rate (nil at
// rate zero, so the healthy column exercises the unfaulted fast path).
func faultSpecAt(drop float64) *fault.Spec {
	if drop == 0 {
		return nil
	}
	return &fault.Spec{Seed: faultSweepSeed, DropPct: drop}
}

// faultCell places one variant spec on the 8-processor iPSC at one
// drop rate.
func faultCell(s RunSpec, drop float64) RunSpec {
	s.Machine, s.Procs, s.Fault = "ipsc", 8, faultSpecAt(drop)
	return s
}

// faultSweepCells lists a (with, without) pair per variant and drop
// rate. The two Water variants share their "with" cells.
func faultSweepCells(Scale) []RunSpec {
	var cells []RunSpec
	for _, v := range faultVariants() {
		for _, d := range faultDropRates {
			cells = append(cells, faultCell(v.with, d), faultCell(v.without, d))
		}
	}
	return cells
}

// faultSweep measures how much of each communication optimization's
// benefit survives as the network loses messages: the retransmit
// protocol keeps runs correct, but every retry burns wire time, so the
// absolute benefit of avoiding communication should grow while the
// relative benefit stays measurable.
func faultSweep(_ Scale, runs []*metrics.Run) *Result {
	variants := faultVariants()
	head := []string{"optimization \\ drop rate"}
	for _, d := range faultDropRates {
		head = append(head, fmt.Sprintf("%.0f%%", d*100))
	}
	var rows [][]string
	var retained [][]float64
	var totalRetx int64
	for i, v := range variants {
		row := []string{v.name}
		var series []float64
		base := 0.0
		for j := range faultDropRates {
			k := 2 * (i*len(faultDropRates) + j)
			with, without := runs[k], runs[k+1]
			benefit := without.ExecTime - with.ExecTime
			totalRetx += with.MsgRetransmits + without.MsgRetransmits
			if j == 0 {
				base = benefit
			}
			pct := 0.0
			if base > 0 {
				pct = benefit / base * 100
			}
			series = append(series, pct)
			row = append(row, fmt.Sprintf("%s (%s s)", table.Cell(pct), table.Cell(benefit)))
		}
		rows = append(rows, row)
		retained = append(retained, series)
	}

	labels := make([]string, len(variants))
	for i, v := range variants {
		labels[i] = v.name
	}
	return &Result{ID: "fault-sweep", Title: registry["fault-sweep"].Title,
		Head: head, Rows: rows,
		Plot: faultPlot(registry["fault-sweep"].Title, labels, retained),
		Notes: fmt.Sprintf("cells are %% of the healthy-network benefit retained (absolute benefit in "+
			"seconds); every faulted message is eventually delivered by the retransmit protocol "+
			"(%d retransmits across the sweep), so results stay correct while the benefit of "+
			"avoiding communication grows with the loss rate", totalRetx)}
}

// faultPlot builds the retained-benefit figure over drop rates (the x
// axis is the drop percentage rather than the processor count).
func faultPlot(title string, labels []string, series [][]float64) *table.Plot {
	markers := []byte{'*', 'o', '+', 'x', '#'}
	p := &table.Plot{Title: title, XLabel: "drop %", YLabel: "benefit retained %"}
	for i, lab := range labels {
		xs := make([]float64, len(faultDropRates))
		for k, d := range faultDropRates {
			xs[k] = d * 100
		}
		p.Series = append(p.Series, table.Series{Label: lab, X: xs, Y: series[i], Marker: markers[i%len(markers)]})
	}
	return p
}
