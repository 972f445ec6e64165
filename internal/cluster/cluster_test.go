package cluster

import (
	"testing"

	"repro/internal/apps/ocean"
	"repro/internal/apps/water"
	"repro/internal/jade"
	"repro/internal/metrics"
	"repro/internal/obsv"
)

func newRT(n int) (*jade.Runtime, *Machine) {
	m := New(DefaultConfig(n))
	rt := jade.New(m, jade.Config{})
	return rt, m
}

func TestSingleWorkstationCorrect(t *testing.T) {
	rt, _ := newRT(1)
	o := rt.Alloc("x", 64, new(int))
	v := o.Data.(*int)
	for i := 0; i < 8; i++ {
		rt.WithOnly(func(s *jade.Spec) { s.RdWr(o) }, 1e-3, func() { *v++ })
	}
	res := rt.Finish()
	if *v != 8 || res.TaskCount != 8 {
		t.Fatalf("v=%d tasks=%d", *v, res.TaskCount)
	}
}

func TestIndependentTasksSpeedUp(t *testing.T) {
	run := func(n int) float64 {
		rt, _ := newRT(n)
		objs := make([]*jade.Object, 24)
		for i := range objs {
			objs[i] = rt.Alloc("o", 64, nil)
		}
		for _, o := range objs {
			o := o
			rt.WithOnly(func(s *jade.Spec) { s.Wr(o) }, 50e-3, func() {})
		}
		return rt.Finish().ExecTime
	}
	if t8, t1 := run(8), run(1); t8 >= t1/2 {
		t.Fatalf("no speedup on the cluster: 1w=%v 8w=%v", t1, t8)
	}
}

func TestSharedBusSerializesTransfers(t *testing.T) {
	// Two workstations fetching large objects from main contend on
	// the single shared medium: the total time is bounded below by
	// the summed bus occupancy.
	rt, m := newRT(3)
	busy := rt.Alloc("busy", 8, nil)
	a := rt.Alloc("a", 500000, nil)
	b := rt.Alloc("b", 500000, nil)
	anchorA := rt.Alloc("aa", 8, nil)
	anchorB := rt.Alloc("ab", 8, nil)
	// Occupy the main station (which owns everything) so both readers
	// scatter to other workstations and must pull the large objects
	// across the shared bus.
	rt.WithOnly(func(s *jade.Spec) { s.Wr(busy) }, 2.0, func() {})
	rt.WithOnly(func(s *jade.Spec) { s.Wr(anchorA); s.Rd(a) }, 1e-3, func() {})
	rt.WithOnly(func(s *jade.Spec) { s.Wr(anchorB); s.Rd(b) }, 1e-3, func() {})
	res := rt.Finish()
	minBus := 2 * float64(500000) / m.cfg.BusBytesPerSec
	if res.ExecTime < minBus {
		t.Fatalf("exec %v beat the serialized bus bound %v", res.ExecTime, minBus)
	}
}

func TestHeterogeneousSpeedsRespected(t *testing.T) {
	// A task on a 0.6× workstation takes work/0.6.
	cfg := DefaultConfig(2) // speeds 1.25, 0.6
	m := New(cfg)
	rt := jade.New(m, jade.Config{})
	o := rt.Alloc("x", 8, nil)
	rt.WithOnly(func(s *jade.Spec) { s.Wr(o) }, 0.6, func() {})
	res := rt.Finish()
	// Scheduled on main (owner, speed 1.25): 0.6/1.25 = 0.48 plus
	// overheads, well under the slow-station time of 1.0.
	if res.ExecTime > 0.6 {
		t.Fatalf("exec %v: task did not run at the fast station's speed", res.ExecTime)
	}
}

func TestSpeedAwarePrefersFastStations(t *testing.T) {
	run := func(aware bool) float64 {
		cfg := DefaultConfig(6)
		cfg.SpeedAware = aware
		m := New(cfg)
		rt := jade.New(m, jade.Config{})
		objs := make([]*jade.Object, 4)
		for i := range objs {
			objs[i] = rt.Alloc("o", 64, nil)
		}
		// Four equal tasks on six stations: the aware scheduler puts
		// them on 1.25× stations, the naive one scatters.
		for _, o := range objs {
			o := o
			rt.WithOnly(func(s *jade.Spec) { s.Wr(o) }, 100e-3, func() {})
		}
		return rt.Finish().ExecTime
	}
	if aware, naive := run(true), run(false); aware > naive {
		t.Fatalf("speed-aware scheduling slower: aware=%v naive=%v", aware, naive)
	}
}

func TestWaterRunsOnCluster(t *testing.T) {
	cfg := water.Small()
	cfg.Molecules = 48
	cfg.Iterations = 1
	for _, n := range []int{1, 3} {
		rt, _ := newRT(n)
		got := water.Run(rt, cfg)
		rt.Finish()
		if want := water.RunSerialEquivalent(cfg, n); got != want {
			t.Fatalf("cluster n=%d: %+v != serial %+v", n, got, want)
		}
	}
}

func TestOceanRunsOnCluster(t *testing.T) {
	cfg := ocean.Small()
	cfg.N = 32
	cfg.Iterations = 4
	rt, _ := newRT(4)
	got := ocean.Run(rt, cfg)
	res := rt.Finish()
	if want := ocean.RunSerialEquivalent(cfg, 4); got != want {
		t.Fatalf("cluster ocean: %+v != serial %+v", got, want)
	}
	if res.MsgBytes == 0 {
		t.Fatal("cluster run moved no data")
	}
}

func TestDeterministic(t *testing.T) {
	run := func() float64 {
		rt, _ := newRT(5)
		objs := make([]*jade.Object, 16)
		for i := range objs {
			objs[i] = rt.Alloc("o", 2048, nil)
		}
		for r := 0; r < 2; r++ {
			for _, o := range objs {
				o := o
				rt.WithOnly(func(s *jade.Spec) { s.RdWr(o) }, 3e-3, func() {})
			}
			rt.Wait()
		}
		return rt.Finish().ExecTime
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic cluster: %v vs %v", a, b)
	}
}

func TestStagedTaskOnCluster(t *testing.T) {
	rt, _ := newRT(2)
	a := rt.Alloc("a", 8, new(int))
	b := rt.Alloc("b", 8, new(int))
	va, vb := a.Data.(*int), b.Data.(*int)
	rt.WithOnlyStaged(func(s *jade.Spec) { s.Wr(a); s.Wr(b) }, []jade.Segment{
		{Work: 1e-3, Body: func() { *va = 1 }, Release: []*jade.Object{a}},
		{Work: 1e-3, Body: func() { *vb = 2 }},
	})
	got := 0
	rt.WithOnly(func(s *jade.Spec) { s.Rd(a) }, 1e-3, func() { got = *va })
	rt.Finish()
	if got != 1 || *vb != 2 {
		t.Fatalf("staged cluster run wrong: got=%d vb=%d", got, *vb)
	}
}

func TestObserverOnCluster(t *testing.T) {
	cfg := ocean.Small()
	cfg.N = 32
	cfg.Iterations = 4

	run := func(sink obsv.Sink) *metrics.Run {
		m := New(DefaultConfig(4))
		m.Sink = sink
		rt := jade.New(m, jade.Config{})
		ocean.Run(rt, cfg)
		return rt.Finish()
	}

	base := run(nil)
	obs := obsv.New(4)
	res := run(obs)
	if res.ExecTime != base.ExecTime {
		t.Fatalf("observer changed virtual time: %.12f vs %.12f", res.ExecTime, base.ExecTime)
	}
	snap := obs.Snapshot(0)
	if snap == nil {
		t.Fatal("instrumented run has no snapshot")
	}
	if snap.ObjectCount == 0 || len(snap.HotObjects) == 0 {
		t.Fatal("no object stats recorded")
	}
	if snap.FetchLatency.Count == 0 || snap.FetchLatency.P95Sec <= 0 {
		t.Fatalf("fetch latency empty: %+v", snap.FetchLatency)
	}
	if snap.TaskWait.Count == 0 {
		t.Fatalf("task wait empty: %+v", snap.TaskWait)
	}
	if snap.Timeline == nil || len(snap.Timeline.Procs) == 0 {
		t.Fatal("timeline missing")
	}
}

// execProcs records the workstation each task was dispatched to.
type execProcs map[int]int

func (x execProcs) Record(e obsv.Event) {
	if e.Kind == obsv.ExecStart {
		x[e.Task] = e.Proc
	}
}

// TestStagedReleaseKeepsLaterOwner: a staged task that released a
// write early must not re-publish it at completion. Here T releases o
// early and keeps running while U writes o's next version; once the
// run drains, o's owner must be U's workstation, holding U's version.
func TestStagedReleaseKeepsLaterOwner(t *testing.T) {
	m := New(DefaultConfig(3))
	procs := execProcs{}
	m.Sink = procs
	rt := jade.New(m, jade.Config{})
	d := rt.Alloc("d", 8, nil)
	o := rt.Alloc("o", 8, nil)
	b := rt.Alloc("b", 8, nil)
	rt.WithOnly(func(s *jade.Spec) { s.Wr(d) }, 1e-2, func() {})
	rt.WithOnlyStaged(func(s *jade.Spec) { s.Wr(o); s.Wr(b) }, []jade.Segment{
		{Work: 1e-4, Release: []*jade.Object{o}},
		{Work: 1},
	})
	u := rt.WithOnly(func(s *jade.Spec) { s.Wr(o) }, 1e-4, func() {})
	rt.Wait()
	up := procs[int(u.ID)]
	if got := m.owner[o.ID]; got != up {
		t.Fatalf("owner of o = workstation %d, want U's workstation %d", got, up)
	}
	if v := m.stores[up][o.ID]; v != 2 {
		t.Fatalf("U's workstation holds version %d of o, want 2", v)
	}
}
