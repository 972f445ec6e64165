package main

import (
	"fmt"
	"sync"

	"repro/internal/apps/cholesky"
	"repro/internal/apps/ocean"
	"repro/internal/apps/spmv"
	"repro/internal/apps/tomo"
	"repro/internal/apps/water"
	"repro/internal/cluster"
	"repro/internal/dash"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/ipsc"
	"repro/internal/jade"
	"repro/internal/pgas"
)

// The traced runs rebuild a cell from the layers' own entry points —
// an app front-end, a machine model, a runtime — because the
// experiments package offers no seam between them. This file is that
// rebuild's vocabulary: the machine a canonical RunSpec describes, and
// the front-end an app name stands for. Every rebuilt cell is checked
// byte for byte against what experiments produced for the same spec,
// so a drift between the two shows as a failed op, not as a wrong
// number.

// Canonical level names onto each machine's level constants.
var (
	dashLevels = map[string]dash.LocalityLevel{
		experiments.LevelNone: dash.NoLocality, experiments.LevelLocality: dash.Locality, experiments.LevelPlacement: dash.TaskPlacement,
	}
	ipscLevels = map[string]ipsc.LocalityLevel{
		experiments.LevelNone: ipsc.NoLocality, experiments.LevelLocality: ipsc.Locality, experiments.LevelPlacement: ipsc.TaskPlacement,
	}
	pgasLevels = map[string]pgas.LocalityLevel{
		experiments.LevelNone: pgas.NoAffinity, experiments.LevelLocality: pgas.Affinity, experiments.LevelPlacement: pgas.TaskPlacement,
	}
)

// newMachine builds the fresh machine model a canonical spec
// describes.
func newMachine(s *experiments.RunSpec) jade.Platform {
	var inj *fault.Injector
	if s.Fault != nil {
		inj = fault.NewInjector(*s.Fault, s.Procs)
	}
	switch s.Machine {
	case "dash":
		m := dash.New(dash.DefaultConfig(s.Procs, dashLevels[s.Level]))
		m.Inj = inj
		return m
	case "ipsc":
		cfg := ipsc.DefaultConfig(s.Procs, ipscLevels[s.Level])
		if s.AdaptiveBroadcast != nil {
			cfg.AdaptiveBroadcast = *s.AdaptiveBroadcast
		}
		if s.ConcurrentFetch != nil {
			cfg.ConcurrentFetch = *s.ConcurrentFetch
		}
		cfg.EagerUpdate, cfg.StickyTarget, cfg.Coalescing = s.EagerUpdate, s.StickyTarget, s.Coalescing
		if s.TargetTasks > 0 {
			cfg.TargetTasks = s.TargetTasks
		}
		m := ipsc.New(cfg)
		m.Inj = inj
		return m
	case "pgas":
		cfg := pgas.DefaultConfig(s.Procs, pgasLevels[s.Level])
		if s.Aggregation != nil {
			cfg.Aggregation = *s.Aggregation
		}
		m := pgas.New(cfg)
		m.Inj = inj
		return m
	case "cluster":
		cfg := cluster.DefaultConfig(s.Procs)
		cfg.SpeedAware = s.SpeedAware
		return cluster.New(cfg)
	}
	panic(fmt.Sprintf("bench: no machine %q", s.Machine))
}

// fusionBenefitPerTask is the task-management bytes one fused task
// saves on a machine: its task message and its completion notice.
func fusionBenefitPerTask(machine string) int64 {
	switch machine {
	case "ipsc":
		c := ipsc.DefaultConfig(1, ipsc.Locality)
		return int64(c.TaskMsgBytes + c.CompletionBytes)
	case "pgas":
		c := pgas.DefaultConfig(1, pgas.Affinity)
		return int64(c.TaskMsgBytes + c.CompletionBytes)
	}
	return 0
}

// The two generated inputs are built once a process, as experiments
// does, and outside every timed region but the sparse.setup_ms probe.
var (
	inputsOnce sync.Once
	choleskyIn *cholesky.Workload
	spmvIn     *spmv.Workload
)

func buildInputs() {
	inputsOnce.Do(func() {
		choleskyIn = cholesky.NewWorkload(cholesky.Small())
		spmvIn = spmv.NewWorkload(spmv.Small())
	})
}

// placed reports whether a spec runs the app's explicitly placed
// version: the placement level, on the two apps that have one.
func placed(s *experiments.RunSpec) bool {
	return s.Level == experiments.LevelPlacement && (s.App == "ocean" || s.App == "cholesky")
}

// frontEnd returns the app's small-scale program.
func frontEnd(app string, place bool) func(*jade.Runtime) {
	buildInputs()
	switch app {
	case "water":
		return func(rt *jade.Runtime) { water.Run(rt, water.Small()) }
	case "string":
		return func(rt *jade.Runtime) { tomo.Run(rt, tomo.Small()) }
	case "ocean":
		cfg := ocean.Small()
		cfg.Place = place
		return func(rt *jade.Runtime) { ocean.Run(rt, cfg) }
	case "cholesky":
		cfg := cholesky.Small()
		cfg.Place = place
		return func(rt *jade.Runtime) { cholesky.Run(rt, cfg, choleskyIn) }
	case "spmv":
		return func(rt *jade.Runtime) { spmv.Run(rt, spmv.Small(), spmvIn) }
	}
	panic(fmt.Sprintf("bench: no app %q", app))
}
