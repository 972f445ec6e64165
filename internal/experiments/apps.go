package experiments

import (
	"repro/internal/apps/cholesky"
	"repro/internal/apps/ocean"
	"repro/internal/apps/spmv"
	"repro/internal/apps/tomo"
	"repro/internal/apps/water"
	"repro/internal/fuse"
	"repro/internal/jade"
)

// appSpec adapts one application to the experiment runners.
type appSpec struct {
	name string
	// key is the canonical RunSpec app name (lowercase, stable).
	key string
	// hasPlacement marks apps the programmer can explicitly place
	// (Ocean and Panel Cholesky; §5.2).
	hasPlacement bool
	// placed marks a front-end that places every task itself, whatever
	// the level, so one captured graph serves every level.
	placed       bool
	run          func(rt *jade.Runtime, scale Scale, place bool)
	serialWork   func(scale Scale) float64
	strippedWork func(scale Scale) float64
	// fuse, when set, is the fusion pass the app's fused cells run, over
	// the timed graph; unset, fused cells are work-free and fuse the
	// graph's work-free view under the pass's defaults.
	fuse *fuse.Options
}

func waterCfg(scale Scale) water.Config {
	if scale == PaperScale {
		return water.Paper()
	}
	return water.Small()
}

func tomoCfg(scale Scale) tomo.Config {
	if scale == PaperScale {
		return tomo.Paper()
	}
	return tomo.Small()
}

func oceanCfg(scale Scale) ocean.Config {
	if scale == PaperScale {
		return ocean.Paper()
	}
	return ocean.Small()
}

// choleskyCfg is the Panel Cholesky configuration behind an app key:
// Table 5's default, or one of the two structural variants (see
// variants) the ablations compare with it.
func choleskyCfg(key string, scale Scale) cholesky.Config {
	cfg := cholesky.Small()
	if scale == PaperScale {
		cfg = cholesky.Paper()
	}
	cfg.Supernodal, cfg.UseRCM = key == "cholesky-supernodal", key == "cholesky-rcm"
	return cfg
}

// The Cholesky symbolic factorization is shared across runs of a
// scale, mirroring the paper's exclusion of the symbolic phase from
// the timings. It lives in the same bounded cache as the captured
// task graphs (see cache.go) — one caching mechanism, not two.
func choleskyWorkload(key string, scale Scale) *cholesky.Workload {
	return cached(sharedCache, cacheKey{kind: kindWorkload, app: key, scale: scale}, func() any {
		return cholesky.NewWorkload(choleskyCfg(key, scale))
	}).(*cholesky.Workload)
}

var waterApp = &appSpec{
	name: "Water",
	key:  "water",
	run: func(rt *jade.Runtime, scale Scale, place bool) {
		water.Run(rt, waterCfg(scale))
	},
	serialWork:   func(s Scale) float64 { return water.SerialWorkSec(waterCfg(s)) },
	strippedWork: func(s Scale) float64 { return water.StrippedWorkSec(waterCfg(s)) },
}

var tomoApp = &appSpec{
	name: "String",
	key:  "string",
	run: func(rt *jade.Runtime, scale Scale, place bool) {
		tomo.Run(rt, tomoCfg(scale))
	},
	serialWork:   func(s Scale) float64 { return tomo.SerialWorkSec(tomoCfg(s)) },
	strippedWork: func(s Scale) float64 { return tomo.StrippedWorkSec(tomoCfg(s)) },
}

var oceanApp = &appSpec{
	name:         "Ocean",
	key:          "ocean",
	hasPlacement: true,
	run: func(rt *jade.Runtime, scale Scale, place bool) {
		cfg := oceanCfg(scale)
		cfg.Place = place
		ocean.Run(rt, cfg)
	},
	serialWork:   func(s Scale) float64 { return ocean.SerialWorkSec(oceanCfg(s)) },
	strippedWork: func(s Scale) float64 { return ocean.StrippedWorkSec(oceanCfg(s)) },
}

// newCholeskyApp is Panel Cholesky under choleskyCfg(key, ·).
func newCholeskyApp(name, key string) *appSpec {
	return &appSpec{
		name:         name,
		key:          key,
		hasPlacement: true,
		run: func(rt *jade.Runtime, scale Scale, place bool) {
			cfg := choleskyCfg(key, scale)
			cfg.Place = place
			cholesky.Run(rt, cfg, choleskyWorkload(key, scale))
		},
		serialWork: func(s Scale) float64 {
			return cholesky.SerialWorkSec(choleskyCfg(key, s), choleskyWorkload(key, s))
		},
		strippedWork: func(s Scale) float64 {
			return cholesky.StrippedWorkSec(choleskyCfg(key, s), choleskyWorkload(key, s))
		},
	}
}

var choleskyApp = newCholeskyApp("Panel Cholesky", "cholesky")

func spmvCfg(scale Scale) spmv.Config {
	if scale == PaperScale {
		return spmv.Paper()
	}
	return spmv.Small()
}

// The SpMV matrix generation is untimed setup shared across runs of a
// scale, like the Cholesky symbolic factorization.
func spmvWorkload(scale Scale) *spmv.Workload {
	return cached(sharedCache, cacheKey{kind: kindWorkload, app: "spmv", scale: scale}, func() any {
		return spmv.NewWorkload(spmvCfg(scale))
	}).(*spmv.Workload)
}

var spmvApp = &appSpec{
	name: "SpMV",
	key:  "spmv",
	run: func(rt *jade.Runtime, scale Scale, place bool) {
		spmv.Run(rt, spmvCfg(scale), spmvWorkload(scale))
	},
	serialWork: func(s Scale) float64 {
		return spmv.SerialWorkSec(spmvCfg(s), spmvWorkload(s))
	},
	strippedWork: func(s Scale) float64 {
		return spmv.StrippedWorkSec(spmvCfg(s), spmvWorkload(s))
	},
}

// allApps are the paper's four applications, in paper order; they
// make up the table/figure sweeps. SpMV is deliberately not in this
// list — the paper's tables do not include it — but it is a full
// RunSpec app (appKeys) and part of the three-machine comparison.
var allApps = []*appSpec{waterApp, tomoApp, oceanApp, choleskyApp}
