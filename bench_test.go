package repro

// One benchmark per table and figure in the paper's evaluation
// section, plus the §5.x studies and the design-choice ablations.
// Each benchmark regenerates its artifact end to end at the small
// scale (go test -bench=. -benchmem); use cmd/jadebench -scale paper
// for paper-sized runs.

import (
	"testing"

	"repro/internal/experiments"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, experiments.Small)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatalf("experiment %s produced no rows", id)
		}
	}
}

// Tables 1 and 6: serial and stripped execution times.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable6(b *testing.B) { benchExperiment(b, "table6") }

// Tables 2–5: execution times on DASH.
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }

// Tables 7–10: execution times on the iPSC/860.
func BenchmarkTable7(b *testing.B)  { benchExperiment(b, "table7") }
func BenchmarkTable8(b *testing.B)  { benchExperiment(b, "table8") }
func BenchmarkTable9(b *testing.B)  { benchExperiment(b, "table9") }
func BenchmarkTable10(b *testing.B) { benchExperiment(b, "table10") }

// Tables 11–14: adaptive broadcast on/off.
func BenchmarkTable11(b *testing.B) { benchExperiment(b, "table11") }
func BenchmarkTable12(b *testing.B) { benchExperiment(b, "table12") }
func BenchmarkTable13(b *testing.B) { benchExperiment(b, "table13") }
func BenchmarkTable14(b *testing.B) { benchExperiment(b, "table14") }

// Figures 2–5: task locality percentage on DASH.
func BenchmarkFig2(b *testing.B) { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B) { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }

// Figures 6–9: total task execution time on DASH.
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// Figures 10–11: task management percentage on DASH.
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// Figures 12–15: task locality percentage on the iPSC/860.
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B) { benchExperiment(b, "fig15") }

// Figures 16–19: communication to computation ratio on the iPSC/860.
func BenchmarkFig16(b *testing.B) { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B) { benchExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B) { benchExperiment(b, "fig18") }
func BenchmarkFig19(b *testing.B) { benchExperiment(b, "fig19") }

// Figures 20–21: task management percentage on the iPSC/860.
func BenchmarkFig20(b *testing.B) { benchExperiment(b, "fig20") }
func BenchmarkFig21(b *testing.B) { benchExperiment(b, "fig21") }

// §5.1 replication, §5.4 latency hiding, §5.5 concurrent fetch.
func BenchmarkSec51(b *testing.B) { benchExperiment(b, "sec5.1") }
func BenchmarkSec54(b *testing.B) { benchExperiment(b, "sec5.4") }
func BenchmarkSec55(b *testing.B) { benchExperiment(b, "sec5.5") }

// Design-choice ablations (DESIGN.md §6).
func BenchmarkAblationSteal(b *testing.B)          { benchExperiment(b, "ablation-steal") }
func BenchmarkAblationLocalityPolicy(b *testing.B) { benchExperiment(b, "ablation-locality-policy") }
func BenchmarkAblationSticky(b *testing.B)         { benchExperiment(b, "ablation-sticky") }

func BenchmarkAblationOrdering(b *testing.B) { benchExperiment(b, "ablation-ordering") }
func BenchmarkExtensionUpdate(b *testing.B)  { benchExperiment(b, "extension-update") }

func BenchmarkExtensionPortability(b *testing.B) { benchExperiment(b, "extension-portability") }

func BenchmarkAblationPanels(b *testing.B) { benchExperiment(b, "ablation-panels") }
func BenchmarkUtilization(b *testing.B)    { benchExperiment(b, "utilization") }

// sweepSpecs is the 26-cell work-free sweep: every app on both primary
// machines at every locality level it supports — the shape of the
// paper's task-management figures (10/11/20/21).
func sweepSpecs(b *testing.B) []experiments.RunSpec {
	b.Helper()
	var specs []experiments.RunSpec
	for _, app := range []string{"water", "string", "ocean", "cholesky"} {
		for _, machine := range []string{"dash", "ipsc"} {
			for _, level := range []string{"none", "locality", "placement"} {
				s := experiments.RunSpec{App: app, Machine: machine, Level: level, WorkFree: true}
				if c := s; c.Canonicalize() != nil {
					continue // app has no explicit placement
				}
				specs = append(specs, s)
			}
		}
	}
	return specs
}

// The work-free sweep through ExecuteRuns: each app front-end is
// captured once, and every cell replays the cached graph's shared plan
// onto a fresh machine. Run serially (workers=1) so the number is the
// per-cell cost, not parallelism.
func BenchmarkSweepGraphReplay(b *testing.B) {
	specs := sweepSpecs(b)
	runner := experiments.NewRunner(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs, err := runner.ExecuteRuns(specs, experiments.Small)
		if err != nil {
			b.Fatal(err)
		}
		if len(runs) != len(specs) {
			b.Fatalf("got %d runs for %d specs", len(runs), len(specs))
		}
	}
}

// The irregular SpMV workload on the PGAS machine, end to end, with
// the remote-get coalescing layer off (every gather element is its own
// message) and on (same-home gathers batched). The pair bounds both
// the simulator's cost on an irregular access pattern and the event
// count the aggregation layer removes.
func benchPgasSpmv(b *testing.B, aggregation bool) {
	spec := experiments.RunSpec{App: "spmv", Machine: "pgas", Aggregation: &aggregation}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := spec.Execute(experiments.Small)
		if err != nil {
			b.Fatal(err)
		}
		if r.TaskCount == 0 {
			b.Fatal("empty SpMV run")
		}
	}
}

func BenchmarkPgasSpMV(b *testing.B)        { benchPgasSpmv(b, false) }
func BenchmarkPgasAggregation(b *testing.B) { benchPgasSpmv(b, true) }

// The granularity study end to end: the synthetic task-size sweep
// across both machines with fusion and coalescing in every combination
// (ROADMAP item 2).
func BenchmarkGranularitySweep(b *testing.B) { benchExperiment(b, "granularity-sweep") }

// The task-fusion pass on the one paper app with fusable chains:
// Cholesky work-free on the iPSC, pass off vs on. The pair bounds what
// the fuse-then-replay path costs relative to plain replay.
func benchFusion(b *testing.B, fusion bool) {
	spec := experiments.RunSpec{App: "cholesky", Machine: "ipsc", WorkFree: true, Fusion: fusion}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := spec.Execute(experiments.Small)
		if err != nil {
			b.Fatal(err)
		}
		if r.TaskCount == 0 {
			b.Fatal("empty Cholesky run")
		}
	}
}

func BenchmarkFusionOff(b *testing.B) { benchFusion(b, false) }
func BenchmarkFusionOn(b *testing.B)  { benchFusion(b, true) }
