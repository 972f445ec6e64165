//go:build !race

package graph

import (
	"strings"
	"testing"

	"repro/internal/apps/cholesky"
	"repro/internal/dash"
	"repro/internal/ipsc"
	"repro/internal/jade"
	"repro/internal/metrics"
)

// TestTimedReplayAllocations guards the timed message path. Replaying
// a captured timed graph onto a fresh machine allocates the machine,
// the runtime's replay state and a few recycled message records, but
// nothing per message: fetches, replies and pushes are kit records
// driven by registered handlers, and DASH caches are dense LRUs. A
// replay onto a reset machine allocates only the runtime's replay
// state: the machine's tables, queues, caches and records are reused.
// A replay onto a reset machine through a runtime reused from the last
// replay (ReplayWith) allocates nothing at all. Each other bound is
// 1.25× the count measured when it was set (on Go 1.24); the
// per-message design allocated 3–18× more, and one closure per fetch
// message breaks every iPSC bound. The race detector instruments
// allocation, so the test builds only without it.
func TestTimedReplayAllocations(t *testing.T) {
	cfg := cholesky.Small()
	w := cholesky.NewWorkload(cfg)
	g := Capture(8, false, func(rt *jade.Runtime) { cholesky.Run(rt, cfg, w) })
	var rt jade.Runtime
	check := func(name string, bound float64, platform func() jade.Platform) {
		replay := func(p jade.Platform) (*metrics.Run, error) { return g.Replay(p, jade.Config{}) }
		if strings.HasSuffix(name, "/reused") {
			replay = func(p jade.Platform) (*metrics.Run, error) { return g.ReplayWith(&rt, p, jade.Config{}) }
		}
		got := testing.AllocsPerRun(5, func() {
			if _, err := replay(platform()); err != nil {
				panic(err)
			}
		})
		if got > bound {
			t.Errorf("%s: %.0f allocations per timed replay, bound %.0f", name, got, bound)
		}
	}
	for _, c := range []struct {
		name                   string
		coalescing, concurrent bool
		bound, resetBound      float64
	}{
		{"ipsc", false, true, 93, 12},
		{"ipsc/coalescing", true, true, 98, 12},
		{"ipsc/serial", false, false, 98, 12},
		{"ipsc/coalescing/serial", true, false, 98, 12},
	} {
		mc := ipsc.DefaultConfig(8, ipsc.Locality)
		mc.Coalescing, mc.ConcurrentFetch = c.coalescing, c.concurrent
		check(c.name, c.bound, func() jade.Platform { return ipsc.New(mc) })
		m := ipsc.New(mc)
		check(c.name+"/reset", c.resetBound, func() jade.Platform { m.Reset(mc); return m })
		check(c.name+"/reset/reused", 0, func() jade.Platform { m.Reset(mc); return m })
	}
	dc := dash.DefaultConfig(8, dash.Locality)
	check("dash", 159, func() jade.Platform { return dash.New(dc) })
	m := dash.New(dc)
	check("dash/reset", 12, func() jade.Platform { m.Reset(dc); return m })
	check("dash/reset/reused", 0, func() jade.Platform { m.Reset(dc); return m })
}
