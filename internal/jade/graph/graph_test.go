package graph

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/apps/ocean"
	"repro/internal/apps/tomo"
	"repro/internal/apps/water"
	"repro/internal/cluster"
	"repro/internal/dash"
	"repro/internal/ipsc"
	"repro/internal/jade"
	"repro/internal/metrics"
	"repro/internal/pgas"
)

// machines is every platform model, at its highest locality level.
var machines = []string{"dash", "ipsc", "pgas", "cluster"}

func newMachine(name string, procs int) jade.Platform {
	switch name {
	case "dash":
		return dash.New(dash.DefaultConfig(procs, dash.TaskPlacement))
	case "ipsc":
		return ipsc.New(ipsc.DefaultConfig(procs, ipsc.TaskPlacement))
	case "pgas":
		return pgas.New(pgas.DefaultConfig(procs, pgas.TaskPlacement))
	}
	return cluster.New(cluster.DefaultConfig(procs))
}

// stencil is a small body-free program exercising everything a capture
// must preserve: placed allocations, placed tasks, an untimed init
// phase behind ResetMetrics, mid-program waits, reductions, and serial
// phases with access declarations.
func stencil(rt *jade.Runtime) {
	n := rt.Processors()
	grid := make([]*jade.Object, n)
	for i := range grid {
		grid[i] = rt.Alloc(fmt.Sprintf("grid[%d]", i), 4096, nil, jade.OnProcessor(i))
	}
	sum := rt.Alloc("sum", 256, nil)
	for i, o := range grid {
		o := o
		rt.WithOnly(func(s *jade.Spec) { s.Wr(o) }, 1e-3, nil, jade.PlaceOn(i))
	}
	rt.ResetMetrics()
	for iter := 0; iter < 3; iter++ {
		for i := range grid {
			o, left := grid[i], grid[(i+n-1)%n]
			rt.WithOnly(func(s *jade.Spec) { s.RdWr(o); s.Rd(left) }, 2e-3, nil, jade.PlaceOn(i))
		}
		rt.Wait()
		rt.WithOnly(func(s *jade.Spec) {
			s.RdWr(sum)
			for _, o := range grid {
				s.Rd(o)
			}
		}, 1e-3, nil)
		rt.Wait()
		rt.Serial(5e-4, nil, func(s *jade.Spec) { s.Rd(sum) })
	}
}

// runJSON serializes a run's full report for byte comparison.
func runJSON(t *testing.T, r *metrics.Run) []byte {
	t.Helper()
	b, err := json.MarshalIndent(r.Report(), "", "  ")
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return b
}

func TestCaptureShape(t *testing.T) {
	g := Capture(4, false, stencil)
	if g.Procs() != 4 || g.WorkFree() {
		t.Fatalf("capture config mismatch: procs=%d workFree=%t", g.Procs(), g.WorkFree())
	}
	if want := 4 + 3*(4+1); g.TaskCount() != want {
		t.Fatalf("TaskCount = %d, want %d", g.TaskCount(), want)
	}
	if g.ObjectCount() != 5 {
		t.Fatalf("ObjectCount = %d, want 5", g.ObjectCount())
	}
	var resets, serials int
	for _, op := range g.ops {
		switch op {
		case opReset:
			resets++
		case opSerial:
			serials++
		}
	}
	if resets != 1 || serials != 3 {
		t.Fatalf("ops carry %d resets and %d serials, want 1 and 3", resets, serials)
	}
	if last := g.ops[len(g.ops)-1]; last != opSerial {
		t.Fatalf("trailing Finish drain not dropped; last op = %d", last)
	}
}

// TestReplayByteIdentical pins Replay against direct execution, the
// only oracle, on every machine: the barrier-heavy stencil both timed
// and work-free. (TestStagedReleaseOrderingReplay adds early releases.)
func TestReplayByteIdentical(t *testing.T) {
	for _, workFree := range []bool{false, true} {
		for _, machine := range machines {
			t.Run(fmt.Sprintf("%s/workFree=%t", machine, workFree), func(t *testing.T) {
				cfg := jade.Config{WorkFree: workFree}
				rt := jade.New(newMachine(machine, 4), cfg)
				stencil(rt)
				direct := runJSON(t, rt.Finish())

				g := Capture(4, workFree, stencil)
				r, err := g.Replay(newMachine(machine, 4), cfg)
				if err != nil {
					t.Fatalf("Replay: %v", err)
				}
				if replayed := runJSON(t, r); !bytes.Equal(direct, replayed) {
					t.Fatalf("replay diverged from direct run:\ndirect:\n%s\nreplay:\n%s", direct, replayed)
				}
			})
		}
	}
}

// staged is a program whose timing depends on early releases: the
// staged task holds a through its first segment only, so the reader of
// a starts mid-task while the reader of b waits for full completion.
func staged(rt *jade.Runtime) {
	a := rt.Alloc("a", 8192, nil)
	b := rt.Alloc("b", 8192, nil, jade.OnProcessor(1))
	rt.WithOnlyStaged(func(s *jade.Spec) { s.Wr(a); s.Wr(b) }, []jade.Segment{
		{Work: 2e-3, Release: []*jade.Object{a}},
		{Work: 4e-3},
	})
	// The reader of a dominates the critical path exactly when the
	// early release lets it start mid-task.
	rt.WithOnly(func(s *jade.Spec) { s.Rd(a) }, 1e-2, nil)
	rt.WithOnly(func(s *jade.Spec) { s.Rd(b) }, 1e-3, nil)
	rt.Wait()
}

func TestStagedReleaseOrderingReplay(t *testing.T) {
	g := Capture(2, false, staged)
	segs := g.plan.Tasks[0].Segments
	if len(segs) != 2 {
		t.Fatalf("staged task captured %d segments, want 2", len(segs))
	}
	if nr := len(segs[0].Release) + len(segs[1].Release); nr != 1 {
		t.Fatalf("captured %d releases, want 1", nr)
	}

	for _, machine := range machines {
		t.Run(machine, func(t *testing.T) {
			newPlatform := func() jade.Platform { return newMachine(machine, 2) }
			rt := jade.New(newPlatform(), jade.Config{})
			staged(rt)
			direct := rt.Finish()

			r, err := g.Replay(newPlatform(), jade.Config{})
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			dj, rj := runJSON(t, direct), runJSON(t, r)
			if !bytes.Equal(dj, rj) {
				t.Fatalf("staged replay diverged:\ndirect:\n%s\nreplay:\n%s", dj, rj)
			}

			// The release must matter: serializing the same program with
			// no early release must finish later, proving the replay
			// path carries the release and not just the total work.
			// (Not on pgas: affinity runs a's reader on a's home locale,
			// behind the staged writer, so the release buys nothing.)
			if machine == "pgas" {
				return
			}
			rt2 := jade.New(newPlatform(), jade.Config{})
			a := rt2.Alloc("a", 8192, nil)
			b := rt2.Alloc("b", 8192, nil, jade.OnProcessor(1))
			rt2.WithOnlyStaged(func(s *jade.Spec) { s.Wr(a); s.Wr(b) }, []jade.Segment{
				{Work: 2e-3},
				{Work: 4e-3},
			})
			rt2.WithOnly(func(s *jade.Spec) { s.Rd(a) }, 1e-2, nil)
			rt2.WithOnly(func(s *jade.Spec) { s.Rd(b) }, 1e-3, nil)
			rt2.Wait()
			if noRelease := rt2.Finish(); noRelease.ExecTime <= direct.ExecTime {
				t.Fatalf("early release changed nothing (release=%g, none=%g); ordering not exercised",
					direct.ExecTime, noRelease.ExecTime)
			}
		})
	}
}

// withBodies is a program whose task, segment and serial bodies do real
// work on the objects' payloads and count their executions in *ran. The
// serial phase reads what the tasks wrote, so it fails unless every
// body before it ran first.
func withBodies(ran *int) func(*jade.Runtime) {
	return func(rt *jade.Runtime) {
		n := rt.Processors()
		parts := make([]*jade.Object, n)
		for i := range parts {
			parts[i] = rt.Alloc(fmt.Sprintf("part[%d]", i), 2048, new(float64), jade.OnProcessor(i))
		}
		total := rt.Alloc("total", 64, new(float64))
		for iter := 1; iter <= 2; iter++ {
			for i, o := range parts {
				o := o
				rt.WithOnly(func(s *jade.Spec) { s.RdWr(o) }, 1e-3,
					func() { *ran++; *o.Data.(*float64) += 1 }, jade.PlaceOn(i))
			}
			sum := 0.0
			rt.WithOnlyStaged(func(s *jade.Spec) {
				s.RdWr(total)
				for _, o := range parts {
					s.Rd(o)
				}
			}, []jade.Segment{
				{Work: 1e-3, Release: parts, Body: func() {
					*ran++
					for _, o := range parts {
						sum += *o.Data.(*float64)
					}
				}},
				{Work: 2e-3, Body: func() { *ran++; *total.Data.(*float64) = sum }},
			})
			rt.Wait()
			want := float64(iter * n)
			rt.Serial(5e-4, func() {
				*ran++
				if got := *total.Data.(*float64); got != want {
					panic(fmt.Sprintf("serial phase read total %g, want %g: a body ran late", got, want))
				}
			}, func(s *jade.Spec) { s.Rd(total) })
		}
	}
}

// A capture runs no task, segment or serial body, and its one graph
// replays timed and work-free runs byte-identical to direct execution
// on every machine. withBodies is the only program with staged tasks
// whose work-free runs replay from a timed graph, so this also pins
// that the machines price neither work nor segments in a work-free run:
// such a run must match the work-free view and charge no task time.
func TestCaptureRunsNoBodies(t *testing.T) {
	const procs = 4
	ran := 0
	g := Capture(procs, false, withBodies(&ran))
	view := Capture(procs, true, withBodies(&ran))
	if ran != 0 {
		t.Fatalf("capture ran %d bodies, want 0", ran)
	}
	for _, machine := range machines {
		for _, workFree := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/workFree=%t", machine, workFree), func(t *testing.T) {
				cfg := jade.Config{WorkFree: workFree}
				rt := jade.New(newMachine(machine, procs), cfg)
				withBodies(new(int))(rt)
				direct := runJSON(t, rt.Finish())
				r, err := g.Replay(newMachine(machine, procs), cfg)
				if err != nil {
					t.Fatalf("Replay: %v", err)
				}
				if replayed := runJSON(t, r); !bytes.Equal(direct, replayed) {
					t.Fatalf("replay diverged from direct run:\ndirect:\n%s\nreplay:\n%s", direct, replayed)
				}
				if !workFree {
					return
				}
				if r.TaskExecTotal != 0 {
					t.Fatalf("work-free run charged %g s of task execution", r.TaskExecTotal)
				}
				rv, err := view.Replay(newMachine(machine, procs), cfg)
				if err != nil {
					t.Fatalf("Replay of the work-free view: %v", err)
				}
				if fromView := runJSON(t, rv); !bytes.Equal(direct, fromView) {
					t.Fatalf("work-free view diverged from direct run:\ndirect:\n%s\nview:\n%s", direct, fromView)
				}
			})
		}
	}
}

func TestReplayValidatesConfig(t *testing.T) {
	g := Capture(4, true, stencil)
	if _, err := g.Replay(dash.New(dash.DefaultConfig(8, dash.Locality)), jade.Config{WorkFree: true}); err == nil {
		t.Fatalf("replay onto mismatched processor count succeeded")
	}
	if _, err := g.Replay(dash.New(dash.DefaultConfig(4, dash.Locality)), jade.Config{}); err == nil {
		t.Fatalf("timed replay of a work-free view succeeded")
	}
	timed := Capture(4, false, stencil)
	if _, err := timed.Replay(dash.New(dash.DefaultConfig(4, dash.Locality)), jade.Config{WorkFree: true}); err != nil {
		t.Fatalf("work-free replay of a timed graph: %v", err)
	}
}

func TestReplayRejectsReusedPlatform(t *testing.T) {
	g := Capture(4, true, stencil)
	cfg := jade.Config{WorkFree: true}
	p := dash.New(dash.DefaultConfig(4, dash.TaskPlacement))
	if _, err := g.Replay(p, cfg); err != nil {
		t.Fatalf("first Replay: %v", err)
	}
	// A machine accumulates virtual time and stats across its life;
	// before the explicit check, replaying into it again silently
	// folded two runs together.
	if _, err := g.Replay(p, cfg); !errors.Is(err, ErrPlatformReused) {
		t.Fatalf("second Replay error = %v, want ErrPlatformReused", err)
	}
	res := NewVariantSet(g, []Variant{{
		Platform: func() jade.Platform { return p },
		Cfg:      cfg,
	}}).Run()
	if !errors.Is(res[0].Err, ErrPlatformReused) {
		t.Fatalf("VariantSet on used platform error = %v, want ErrPlatformReused", res[0].Err)
	}

	// A used platform must also be refused on a runtime built directly.
	p2 := ipsc.New(ipsc.DefaultConfig(4, ipsc.Locality))
	jade.New(p2, cfg)
	if _, err := g.Replay(p2, cfg); !errors.Is(err, ErrPlatformReused) {
		t.Fatalf("Replay on attached platform error = %v, want ErrPlatformReused", err)
	}
}

// A reset machine is as good as a new one: Reset detaches the runtime,
// so Replay accepts it and reproduces a fresh machine's run, even after
// running at another processor count.
func TestReplayAcceptsResetPlatform(t *testing.T) {
	g := Capture(4, true, stencil)
	cfg := jade.Config{WorkFree: true}
	dc := dash.DefaultConfig(4, dash.TaskPlacement)
	want, err := g.Replay(dash.New(dc), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := dash.New(dash.DefaultConfig(8, dash.Locality))
	if _, err := Capture(8, true, stencil).Replay(p, cfg); err != nil {
		t.Fatal(err)
	}
	p.Reset(dc)
	got, err := g.Replay(p, cfg)
	if err != nil {
		t.Fatalf("Replay after Reset: %v", err)
	}
	if a, b := runJSON(t, want), runJSON(t, got); !bytes.Equal(a, b) {
		t.Fatalf("replay onto a reset machine diverged:\nnew:\n%s\nreset:\n%s", a, b)
	}
	p2 := ipsc.New(ipsc.DefaultConfig(4, ipsc.Locality))
	jade.New(p2, cfg)
	p2.Reset(ipsc.DefaultConfig(4, ipsc.Locality))
	if _, err := g.Replay(p2, cfg); err != nil {
		t.Fatalf("Replay on a reset platform: %v", err)
	}
}

// panicPlatform wraps a platform and panics on the Nth TaskCreated —
// a stand-in for a machine-model bug in one variant of a set.
type panicPlatform struct {
	jade.Platform
	left int
}

func (p *panicPlatform) TaskCreated(t *jade.Task, enabled bool) {
	p.left--
	if p.left == 0 {
		panic("panicPlatform: injected machine failure")
	}
	p.Platform.TaskCreated(t, enabled)
}

// TestVariantSetByteIdentical pins what is left of VariantSet (a loop
// over Replay kept for bench/): a variant whose machine panics
// mid-stream surfaces as that variant's error, its siblings' reports
// equal solo Replay byte for byte, and each factory is called once.
func TestVariantSetByteIdentical(t *testing.T) {
	g := Capture(4, true, stencil)
	cfg := jade.Config{WorkFree: true, Locality: jade.LocalityFirst}
	makes := []func() jade.Platform{
		func() jade.Platform { return newMachine("ipsc", 4) },
		func() jade.Platform { return &panicPlatform{Platform: newMachine("dash", 4), left: 5} },
		func() jade.Platform { return newMachine("pgas", 4) },
	}
	calls := make([]int, len(makes))
	vars := make([]Variant, len(makes))
	for i, mk := range makes {
		vars[i] = Variant{Cfg: cfg, Platform: func() jade.Platform { calls[i]++; return mk() }}
	}
	res := NewVariantSet(g, vars).Run()
	for i, n := range calls {
		if n != 1 {
			t.Fatalf("variant %d: factory called %d times, want 1", i, n)
		}
	}
	if bad := res[1]; bad.Err == nil || bad.Run != nil {
		t.Fatalf("panicking variant: Run=%v Err=%v, want nil Run and an error", bad.Run, bad.Err)
	}
	for _, i := range []int{0, 2} {
		if res[i].Err != nil {
			t.Fatalf("variant %d: %v", i, res[i].Err)
		}
		solo, err := g.Replay(makes[i](), cfg)
		if err != nil {
			t.Fatalf("variant %d: solo Replay: %v", i, err)
		}
		sj, bj := runJSON(t, solo), runJSON(t, res[i].Run)
		if !bytes.Equal(sj, bj) {
			t.Fatalf("variant %d diverged from solo Replay:\nsolo:\n%s\nset:\n%s", i, sj, bj)
		}
	}
}

func TestReplayConcurrent(t *testing.T) {
	g := Capture(4, true, stencil)
	rt := jade.New(ipsc.New(ipsc.DefaultConfig(4, ipsc.Locality)), jade.Config{WorkFree: true})
	stencil(rt)
	want := runJSON(t, rt.Finish())

	var wg sync.WaitGroup
	got := make([][]byte, 8)
	errs := make([]error, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := g.Replay(ipsc.New(ipsc.DefaultConfig(4, ipsc.Locality)), jade.Config{WorkFree: true})
			if err != nil {
				errs[i] = err
				return
			}
			b, err := json.MarshalIndent(r.Report(), "", "  ")
			got[i], errs[i] = b, err
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("replay %d: %v", i, errs[i])
		}
		if !bytes.Equal(want, got[i]) {
			t.Fatalf("concurrent replay %d diverged from direct run", i)
		}
	}
}

// TestReplayAllocations pins the arena design: replaying a captured
// graph must allocate far less than re-running the application
// front-end, which builds per-task Specs, closures, and the app's own
// data structures on every run. The String application (tomo) has the
// heaviest front-end — the model traces every ray at construction —
// so the gap is widest there; water pins the machine-inclusive path.
func TestReplayAllocations(t *testing.T) {
	wf := jade.Config{WorkFree: true}
	tomoCfg := tomo.Small()
	g := Capture(8, true, func(rt *jade.Runtime) { tomo.Run(rt, tomoCfg) })

	// Front-end cost in isolation: drive both paths against the
	// recording platform, which adds the same bookkeeping to each side,
	// so the difference is the app driver (model construction, Specs,
	// closures) vs the replay arenas.
	direct := testing.AllocsPerRun(10, func() {
		Capture(8, true, func(rt *jade.Runtime) { tomo.Run(rt, tomoCfg) })
	})
	replay := testing.AllocsPerRun(10, func() {
		rec := &recorder{procs: 8}
		if _, err := g.Replay(rec, wf); err != nil {
			panic(err)
		}
	})
	t.Logf("tomo front-end allocs/run: direct=%.0f replay=%.0f", direct, replay)
	if replay > direct/2 {
		t.Fatalf("replay front-end allocates %.0f/run, more than half of direct's %.0f/run", replay, direct)
	}

	// Machine included, every app must still come out ahead; water has
	// the leanest front-end, so it bounds the worst case.
	waterCfg := water.Small()
	gw := Capture(8, true, func(rt *jade.Runtime) { water.Run(rt, waterCfg) })
	wDirect := testing.AllocsPerRun(5, func() {
		m := dash.New(dash.DefaultConfig(8, dash.Locality))
		rt := jade.New(m, wf)
		water.Run(rt, waterCfg)
		rt.Finish()
	})
	wReplay := testing.AllocsPerRun(5, func() {
		m := dash.New(dash.DefaultConfig(8, dash.Locality))
		if _, err := gw.Replay(m, wf); err != nil {
			panic(err)
		}
	})
	t.Logf("water machine-inclusive allocs/run: direct=%.0f replay=%.0f", wDirect, wReplay)
	if wReplay >= wDirect {
		t.Fatalf("water replay allocates %.0f/run, not below direct's %.0f/run", wReplay, wDirect)
	}
}

// The synchronizer's reduction keeps a captured plan small: a read keeps
// one edge, and a write one edge per read it follows. On Ocean, the most
// edge-heavy app (the full conflict relation has 13 665 edges over its
// 583 accesses at procs = 8), the edges stay within the access count.
func TestReducedEdgesBounded(t *testing.T) {
	pl := Capture(8, true, func(rt *jade.Runtime) { ocean.Run(rt, ocean.Small()) }).plan
	edges, accs := len(pl.Succ), len(pl.First)
	if edges > accs {
		t.Fatalf("ocean procs=8: %d edges for %d accesses", edges, accs)
	}
}
