package load

import (
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/router"
	"repro/internal/serve"
)

// fastConfig is a small, quick workload over real in-process jaded
// backends (real experiment engine, small scale, tiny spec pool so
// nearly everything is a cache hit after warmup).
func fastConfig(t *testing.T) Config {
	t.Helper()
	specs, err := ExperimentSpecs(experiments.Small, "table1", "table2", "table3")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Backends:    3,
		Requests:    60,
		Concurrency: 4,
		Seed:        11,
		Specs:       specs,
		Router: router.Config{
			HedgeAfter:     5 * time.Millisecond,
			RequestTimeout: 10 * time.Second,
			Health:         router.HealthConfig{ProbeInterval: -1},
		},
		Server: serve.Config{Workers: 2, QueueCap: 64},
	}
}

// TestPlanDeterministic: the same seed yields the same request
// schedule — the property every "deterministic under pinned seed"
// claim in ci.sh rests on.
func TestPlanDeterministic(t *testing.T) {
	cfg := fastConfig(t)
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	a, b := buildPlan(&cfg), buildPlan(&cfg)
	for i := range a.choice {
		if a.choice[i] != b.choice[i] || a.sync[i] != b.sync[i] {
			t.Fatalf("plans diverge at request %d: (%d,%v) vs (%d,%v)",
				i, a.choice[i], a.sync[i], b.choice[i], b.sync[i])
		}
	}
	if a.hot != b.hot {
		t.Fatalf("hot key differs: %d vs %d", a.hot, b.hot)
	}
	cfg.Seed++
	c := buildPlan(&cfg)
	same := true
	for i := range a.choice {
		if a.choice[i] != c.choice[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical spec schedules")
	}
}

// TestRunHealthyTopology: a clean run completes every request, hits
// the cache heavily (tiny Zipf-skewed pool), and reports the
// jade-load/v1 shape.
func TestRunHealthyTopology(t *testing.T) {
	tr, err := Run(fastConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Backends != 3 || tr.Counts.Total != 60 {
		t.Fatalf("report = backends %d / total %d, want 3 / 60", tr.Backends, tr.Counts.Total)
	}
	if tr.Counts.Failed != 0 || tr.Counts.OK != 60 {
		t.Fatalf("counts = %+v, want all 60 ok", tr.Counts)
	}
	if tr.CacheHitRate < 0.5 {
		t.Fatalf("cache hit rate %.2f, want most of a 3-spec pool cached", tr.CacheHitRate)
	}
	if tr.Latency.Count == 0 || tr.Latency.P50Sec <= 0 {
		t.Fatalf("latency summary empty: %+v", tr.Latency)
	}
	if tr.Router.Routed != 60 {
		t.Fatalf("router counters = %+v, want 60 routed", tr.Router)
	}
}

// TestRunComparisonWithKill: the chaos scenario end to end — hang the
// hottest key's primary mid-run in the 3-node topology. No request
// may fail (hedging and failover absorb the hang), and the kill must
// not touch the 1-node baseline.
func TestRunComparisonWithKill(t *testing.T) {
	cfg := fastConfig(t)
	cfg.Requests = 80
	cfg.Kills = []KillEvent{{AfterRequest: 25, Mode: KillHang}}
	rep, err := RunComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != Schema || len(rep.Topologies) != 2 {
		t.Fatalf("report schema=%q topologies=%d, want %s with 2 topologies", rep.Schema, len(rep.Topologies), Schema)
	}
	single, multi := rep.Topologies[0], rep.Topologies[1]
	if single.Backends != 1 || len(single.Killed) != 0 {
		t.Fatalf("baseline = %d backends, killed %v; kills must not apply to 1 node", single.Backends, single.Killed)
	}
	if single.Counts.Failed != 0 {
		t.Fatalf("baseline failed %d requests", single.Counts.Failed)
	}
	if multi.Backends != 3 || len(multi.Killed) != 1 {
		t.Fatalf("multi = %d backends, killed %v, want 3 with 1 kill applied", multi.Backends, multi.Killed)
	}
	if multi.Counts.Failed != 0 {
		t.Fatalf("multi-node run failed %d requests; hedging/failover must absorb a hung node", multi.Counts.Failed)
	}
	if multi.Counts.OK+multi.Counts.Stale != multi.Counts.Total {
		t.Fatalf("counts don't add up: %+v", multi.Counts)
	}
}

// TestConfigValidation: bad knobs fail loudly instead of producing a
// silently wrong workload.
func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Kills: []KillEvent{{Mode: "explode"}}}); err == nil {
		t.Fatal("unknown kill mode accepted")
	}
}
