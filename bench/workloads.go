package main

import (
	"fmt"
	"math/rand"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/serve"
)

// The four workload names, in the order every report lists them;
// BENCHMARK.json says why each exists, README.md at more length.
const (
	wPaperTables   = "paper-tables"
	wWorkfreeSweep = "workfree-sweep"
	wServeHot      = "serve-hot"
	wServeCold     = "serve-cold"
)

var workloadNames = []string{wPaperTables, wWorkfreeSweep, wServeHot, wServeCold}

// The lists below are frozen on purpose: they are the benchmark's
// inputs, so they must not change when a later PR registers another
// experiment or adds a default run spec.

// tableIDs are the paper-tables workload: the execution-time tables,
// in paper order (Tables 1 and 6 are closed-form and simulate nothing).
var tableIDs = []string{
	"table2", "table3", "table4", "table5",
	"table7", "table8", "table9", "table10",
	"table11", "table12", "table13", "table14",
}

// hotExperimentIDs is every experiment registered when the benchmark
// was defined; each is one job of the serve-hot pool.
var hotExperimentIDs = []string{
	"table1", "table6", "table2", "table3", "table4", "table5",
	"table7", "table8", "table9", "table10",
	"table11", "table12", "table13", "table14",
	"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
	"fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
	"fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
	"sec5.1", "sec5.4", "sec5.5",
	"ablation-steal", "ablation-locality-policy", "ablation-sticky",
	"ablation-ordering", "extension-update", "extension-portability",
	"ablation-panels", "utilization",
	"fault-sweep", "granularity-sweep", "pgas-compare",
}

// appLevels lists every locality level RunSpec.Canonicalize accepts
// for an app on the levelled machines; only Ocean and Panel Cholesky
// support explicit placement.
var appLevels = []struct {
	app    string
	levels []string
}{
	{"water", []string{"none", "locality"}},
	{"string", []string{"none", "locality"}},
	{"ocean", []string{"none", "locality", "placement"}},
	{"cholesky", []string{"none", "locality", "placement"}},
	{"spmv", []string{"none", "locality"}},
}

// sweepSpecs is the workfree-sweep cell list: 216 levelled cells, 12
// cluster cells, 4 fusion+coalescing cells and 2 seeded-fault cells.
func sweepSpecs() []experiments.RunSpec {
	var specs []experiments.RunSpec
	for _, machine := range []string{"dash", "ipsc", "pgas"} {
		for _, al := range appLevels {
			for _, level := range al.levels {
				for _, procs := range []int{1, 2, 4, 8, 16, 32} {
					specs = append(specs, experiments.RunSpec{
						App: al.app, Machine: machine, Procs: procs, Level: level, WorkFree: true,
					})
				}
			}
		}
	}
	for _, app := range []string{"water", "string", "ocean", "cholesky"} {
		for _, procs := range []int{4, 8, 16} {
			specs = append(specs, experiments.RunSpec{
				App: app, Machine: "cluster", Procs: procs, WorkFree: true,
			})
		}
	}
	for _, app := range []string{"cholesky", "spmv"} {
		for _, procs := range []int{8, 32} {
			specs = append(specs, experiments.RunSpec{
				App: app, Machine: "ipsc", Procs: procs, Level: "locality",
				WorkFree: true, Fusion: true, Coalescing: true,
			})
		}
	}
	for _, app := range []string{"ocean", "cholesky"} {
		specs = append(specs, experiments.RunSpec{
			App: app, Machine: "ipsc", Procs: 8, Level: "locality", WorkFree: true,
			Fault: &fault.Spec{Seed: 7, DropPct: 0.05},
		})
	}
	return canonicalRuns(specs)
}

func canonicalRuns(specs []experiments.RunSpec) []experiments.RunSpec {
	for i := range specs {
		if err := specs[i].Canonicalize(); err != nil {
			panic(fmt.Sprintf("bench: frozen run spec %d: %v", i, err))
		}
	}
	return specs
}

// canonicalJobs wraps each experiment ID and each run spec in a job of
// its own and canonicalizes it, as Router.Do requires.
func canonicalJobs(ids []string, runs []experiments.RunSpec) []*serve.JobSpec {
	var jobs []*serve.JobSpec
	for _, id := range ids {
		jobs = append(jobs, &serve.JobSpec{Experiments: []string{id}})
	}
	for _, r := range runs {
		jobs = append(jobs, &serve.JobSpec{Runs: []experiments.RunSpec{r}})
	}
	for i, j := range jobs {
		if err := j.Canonicalize(); err != nil {
			panic(fmt.Sprintf("bench: frozen job spec %d: %v", i, err))
		}
	}
	return jobs
}

// hotPool is the serve-hot pool: 48 one-experiment jobs followed by
// the 11 default run specs of the time, observer off. Pool order is
// popularity order: the Zipf draw's rank r asks for hotPool()[r].
func hotPool() []*serve.JobSpec {
	var runs []experiments.RunSpec
	for _, al := range appLevels[:4] {
		for _, machine := range []string{"dash", "ipsc"} {
			runs = append(runs, experiments.RunSpec{
				App: al.app, Machine: machine, Procs: 8, Level: al.levels[len(al.levels)-1],
			})
		}
	}
	for _, machine := range []string{"dash", "ipsc", "pgas"} {
		runs = append(runs, experiments.RunSpec{App: "spmv", Machine: machine, Procs: 8, Level: "locality"})
	}
	return canonicalJobs(hotExperimentIDs, runs)
}

// coldPool is the serve-cold pool: 1370 distinct one-run jobs that
// differ in machine toggles, over 35 task graphs.
func coldPool() []*serve.JobSpec {
	var runs []experiments.RunSpec
	on, off := true, false
	for _, al := range appLevels {
		for _, level := range al.levels {
			for _, procs := range []int{2, 4, 8, 16, 32} {
				for _, workFree := range []bool{true, false} {
					base := experiments.RunSpec{App: al.app, Procs: procs, Level: level, WorkFree: workFree}
					for target := 1; target <= 4; target++ {
						for _, ab := range []*bool{&on, &off} {
							s := base
							s.Machine, s.TargetTasks, s.AdaptiveBroadcast = "ipsc", target, ab
							runs = append(runs, s)
						}
					}
					for _, agg := range []*bool{&on, &off} {
						s := base
						s.Machine, s.Aggregation = "pgas", agg
						runs = append(runs, s)
					}
					s := base
					s.Machine = "dash"
					runs = append(runs, s)
					if level == "none" {
						s.Machine, s.Level = "cluster", ""
						runs = append(runs, s)
					}
				}
			}
		}
	}
	return canonicalJobs(nil, runs)
}

// Zipf exponent of the serve-hot request mix.
const zipfS = 1.2

// newZipf returns client c's rank generator over a pool of n jobs.
// Each client owns one, so its draw sequence depends on the seed and
// the client index alone, never on how the clients interleave.
func newZipf(seed int64, client, n int) *rand.Zipf {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(client)))
	return rand.NewZipf(rng, zipfS, 1, uint64(n-1))
}

// shuffledOrder returns the seeded walk order over a pool of n jobs.
func shuffledOrder(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}
