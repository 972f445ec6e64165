package graph

import (
	"bytes"
	"testing"

	"repro/internal/dash"
	"repro/internal/fuse"
	"repro/internal/ipsc"
	"repro/internal/jade"
)

// tinyOpts admits every task these test programs create (they use
// 10-microsecond tasks against a 1-millisecond threshold).
func tinyOpts() fuse.Options { return fuse.Options{MaxChain: 64, MaxWork: 1e-3} }

// chainProg emits n consecutive tiny read-write tasks on one object,
// all placed on processor 0 — the canonical fusable chain — followed
// by a reader so the chain's output version is observable.
func chainProg(n int) func(*jade.Runtime) {
	return func(rt *jade.Runtime) {
		o := rt.Alloc("o", 1024, nil, jade.OnProcessor(0))
		for i := 0; i < n; i++ {
			rt.WithOnly(func(s *jade.Spec) { s.RdWr(o) }, 10e-6, nil, jade.PlaceOn(0))
		}
		rt.WithOnly(func(s *jade.Spec) { s.Rd(o) }, 10e-6, nil, jade.PlaceOn(1))
		rt.Wait()
	}
}

func TestFuseCollapsesChain(t *testing.T) {
	const n = 6
	g := Capture(2, false, chainProg(n))
	fg, st, err := g.Fuse(tinyOpts())
	if err != nil {
		t.Fatalf("Fuse: %v", err)
	}
	// The n same-placed writers collapse into one task; the trailing
	// reader lives on another processor, so it stays out.
	if st.Chains != 1 || st.TasksFused != n-1 {
		t.Fatalf("stats = %+v, want 1 chain fusing %d tasks", st, n-1)
	}
	if got, want := fg.TaskCount(), g.TaskCount()-st.TasksFused; got != want {
		t.Fatalf("fused TaskCount = %d, want %d (original %d - fused %d)",
			got, want, g.TaskCount(), st.TasksFused)
	}
	// Fusion moves work between tasks but never creates or drops any.
	var orig, fused float64
	for _, t := range g.plan.Tasks {
		orig += t.Work
	}
	for _, t := range fg.plan.Tasks {
		fused += t.Work
	}
	if orig != fused {
		t.Fatalf("total work changed: %g -> %g", orig, fused)
	}
}

func TestFuseRespectsMaxChain(t *testing.T) {
	g := Capture(2, false, func(rt *jade.Runtime) {
		o := rt.Alloc("o", 1024, nil, jade.OnProcessor(0))
		for i := 0; i < 8; i++ {
			rt.WithOnly(func(s *jade.Spec) { s.RdWr(o) }, 10e-6, nil, jade.PlaceOn(0))
		}
		rt.Wait()
	})
	_, st, err := g.Fuse(fuse.Options{MaxChain: 3, MaxWork: 1e-3})
	if err != nil {
		t.Fatalf("Fuse: %v", err)
	}
	// 8 tasks under a cap of 3 pack as 3+3+2.
	if st.Chains != 3 || st.TasksFused != 5 {
		t.Fatalf("stats = %+v, want 3 chains fusing 5 tasks", st)
	}
}

func TestFuseSkipsBigTasks(t *testing.T) {
	g := Capture(2, false, func(rt *jade.Runtime) {
		o := rt.Alloc("o", 1024, nil, jade.OnProcessor(0))
		rt.WithOnly(func(s *jade.Spec) { s.RdWr(o) }, 10e-6, nil, jade.PlaceOn(0))
		rt.WithOnly(func(s *jade.Spec) { s.RdWr(o) }, 5e-3, nil, jade.PlaceOn(0)) // above MaxWork
		rt.WithOnly(func(s *jade.Spec) { s.RdWr(o) }, 10e-6, nil, jade.PlaceOn(0))
		rt.Wait()
	})
	fg, st, err := g.Fuse(tinyOpts())
	if err != nil {
		t.Fatalf("Fuse: %v", err)
	}
	// The big middle task neither joins nor heads a chain, and it
	// separates the two tiny tasks, so nothing fuses.
	if st.TasksFused != 0 || fg.TaskCount() != g.TaskCount() {
		t.Fatalf("stats = %+v with %d tasks, want no fusion", st, fg.TaskCount())
	}
}

func TestFusePlacementBreaksChain(t *testing.T) {
	g := Capture(2, false, func(rt *jade.Runtime) {
		o := rt.Alloc("o", 1024, nil, jade.OnProcessor(0))
		for i := 0; i < 4; i++ {
			rt.WithOnly(func(s *jade.Spec) { s.RdWr(o) }, 10e-6, nil, jade.PlaceOn(i%2))
		}
		rt.Wait()
	})
	_, st, err := g.Fuse(tinyOpts())
	if err != nil {
		t.Fatalf("Fuse: %v", err)
	}
	if st.TasksFused != 0 {
		t.Fatalf("stats = %+v, want no fusion across placements", st)
	}
}

func TestFuseRequiresNestedAccess(t *testing.T) {
	g := Capture(2, false, func(rt *jade.Runtime) {
		a := rt.Alloc("a", 1024, nil, jade.OnProcessor(0))
		b := rt.Alloc("b", 1024, nil, jade.OnProcessor(0))
		rt.WithOnly(func(s *jade.Spec) { s.RdWr(a) }, 10e-6, nil, jade.PlaceOn(0))
		// Widens the object set: not nested in {a}, so it breaks the
		// chain and heads a fresh one...
		rt.WithOnly(func(s *jade.Spec) { s.RdWr(a); s.RdWr(b) }, 10e-6, nil, jade.PlaceOn(0))
		// ...that this subset task then joins.
		rt.WithOnly(func(s *jade.Spec) { s.RdWr(a) }, 10e-6, nil, jade.PlaceOn(0))
		rt.Wait()
	})
	fg, st, err := g.Fuse(tinyOpts())
	if err != nil {
		t.Fatalf("Fuse: %v", err)
	}
	if st.Chains != 1 || st.TasksFused != 1 || fg.TaskCount() != 2 {
		t.Fatalf("stats = %+v with %d tasks, want 1 chain fusing 1 task into 2 total", st, fg.TaskCount())
	}
}

func TestFuseLeavesIndependentReadsAlone(t *testing.T) {
	g := Capture(2, false, func(rt *jade.Runtime) {
		o := rt.Alloc("o", 1024, nil, jade.OnProcessor(0))
		for i := 0; i < 4; i++ {
			rt.WithOnly(func(s *jade.Spec) { s.Rd(o) }, 10e-6, nil, jade.PlaceOn(0))
		}
		rt.Wait()
	})
	fg, st, err := g.Fuse(tinyOpts())
	if err != nil {
		t.Fatalf("Fuse: %v", err)
	}
	// Read-only tasks never conflict: they run concurrently, and fusing
	// them would serialize parallelism the synchronizer grants.
	if st.TasksFused != 0 || fg.TaskCount() != g.TaskCount() {
		t.Fatalf("stats = %+v with %d tasks, want read-only chain untouched", st, fg.TaskCount())
	}
}

func TestFuseFlushesAtPhaseBoundaries(t *testing.T) {
	g := Capture(2, false, func(rt *jade.Runtime) {
		o := rt.Alloc("o", 1024, nil, jade.OnProcessor(0))
		rt.WithOnly(func(s *jade.Spec) { s.RdWr(o) }, 10e-6, nil, jade.PlaceOn(0))
		rt.WithOnly(func(s *jade.Spec) { s.RdWr(o) }, 10e-6, nil, jade.PlaceOn(0))
		rt.Wait() // barrier: flushes the open chain
		rt.WithOnly(func(s *jade.Spec) { s.RdWr(o) }, 10e-6, nil, jade.PlaceOn(0))
		rt.WithOnly(func(s *jade.Spec) { s.RdWr(o) }, 10e-6, nil, jade.PlaceOn(0))
		rt.Alloc("late", 64, nil, jade.OnProcessor(1)) // allocation: flushes too
		rt.WithOnly(func(s *jade.Spec) { s.RdWr(o) }, 10e-6, nil, jade.PlaceOn(0))
		rt.WithOnly(func(s *jade.Spec) { s.RdWr(o) }, 10e-6, nil, jade.PlaceOn(0))
		rt.Wait()
	})
	fg, st, err := g.Fuse(tinyOpts())
	if err != nil {
		t.Fatalf("Fuse: %v", err)
	}
	if st.Chains != 3 || st.TasksFused != 3 || fg.TaskCount() != 3 {
		t.Fatalf("stats = %+v with %d tasks, want 3 two-task chains kept apart by boundaries",
			st, fg.TaskCount())
	}
}

func TestFuseSkipsStagedTasks(t *testing.T) {
	g := Capture(2, false, func(rt *jade.Runtime) {
		o := rt.Alloc("o", 1024, nil, jade.OnProcessor(0))
		rt.WithOnly(func(s *jade.Spec) { s.RdWr(o) }, 10e-6, nil, jade.PlaceOn(0))
		rt.WithOnlyStaged(func(s *jade.Spec) { s.RdWr(o) }, []jade.Segment{
			{Work: 10e-6, Release: []*jade.Object{o}},
			{Work: 10e-6},
		}, jade.PlaceOn(0))
		rt.WithOnly(func(s *jade.Spec) { s.RdWr(o) }, 10e-6, nil, jade.PlaceOn(0))
		rt.Wait()
	})
	fg, st, err := g.Fuse(tinyOpts())
	if err != nil {
		t.Fatalf("Fuse: %v", err)
	}
	// The staged task's segment boundary is an early-release point a
	// fused unit would swallow; it stays out and splits its neighbors.
	if st.TasksFused != 0 || fg.TaskCount() != g.TaskCount() {
		t.Fatalf("stats = %+v with %d tasks, want staged program untouched", st, fg.TaskCount())
	}
}

func TestFuseDisabledIsByteIdentical(t *testing.T) {
	g := Capture(4, false, stencil)
	fg, st, err := g.Fuse(fuse.Options{MaxChain: 1, MaxWork: 1})
	if err != nil {
		t.Fatalf("Fuse: %v", err)
	}
	if st.Chains != 0 || st.TasksFused != 0 {
		t.Fatalf("disabled pass fused anyway: %+v", st)
	}
	cfg := jade.Config{}
	for _, machine := range []string{"dash", "ipsc"} {
		newPlatform := func() jade.Platform {
			if machine == "dash" {
				return dash.New(dash.DefaultConfig(4, dash.TaskPlacement))
			}
			return ipsc.New(ipsc.DefaultConfig(4, ipsc.TaskPlacement))
		}
		orig, err := g.Replay(newPlatform(), cfg)
		if err != nil {
			t.Fatalf("%s: Replay original: %v", machine, err)
		}
		passed, err := fg.Replay(newPlatform(), cfg)
		if err != nil {
			t.Fatalf("%s: Replay fused: %v", machine, err)
		}
		oj, pj := runJSON(t, orig), runJSON(t, passed)
		if !bytes.Equal(oj, pj) {
			t.Fatalf("%s: disabled fuse pass changed the replay:\noriginal:\n%s\nfused:\n%s",
				machine, oj, pj)
		}
	}
}

// TestFusedReplayConsistent pins the fused graph's replay against
// direct execution of the same program written pre-fused: the plan
// built from the fused access spans must make every machine see what
// the synchronizer derives for the hand-fused program.
func TestFusedReplayConsistent(t *testing.T) {
	const n = 6
	fg, st, err := Capture(2, false, chainProg(n)).Fuse(tinyOpts())
	if err != nil {
		t.Fatalf("Fuse: %v", err)
	}
	if st.TasksFused != n-1 {
		t.Fatalf("test program did not fuse into one task; stats = %+v", st)
	}
	handFused := func(rt *jade.Runtime) {
		o := rt.Alloc("o", 1024, nil, jade.OnProcessor(0))
		work := 0.0
		for i := 0; i < n; i++ {
			work += 10e-6 // summed the way the pass sums, so the float is identical
		}
		rt.WithOnly(func(s *jade.Spec) { s.RdWr(o) }, work, nil, jade.PlaceOn(0))
		rt.WithOnly(func(s *jade.Spec) { s.Rd(o) }, 10e-6, nil, jade.PlaceOn(1))
		rt.Wait()
	}
	for _, machine := range machines {
		t.Run(machine, func(t *testing.T) {
			rt := jade.New(newMachine(machine, 2), jade.Config{})
			handFused(rt)
			direct := runJSON(t, rt.Finish())
			r, err := fg.Replay(newMachine(machine, 2), jade.Config{})
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			if replayed := runJSON(t, r); !bytes.Equal(direct, replayed) {
				t.Fatalf("fused replay diverged from the hand-fused program:\ndirect:\n%s\nreplay:\n%s", direct, replayed)
			}
		})
	}
}

// TestFuseCutsMessagesAndTime is the unit-level version of the
// acceptance criterion: on the iPSC a fused fine-grained chain must
// send fewer messages and finish sooner than the unfused original.
func TestFuseCutsMessagesAndTime(t *testing.T) {
	g := Capture(2, false, func(rt *jade.Runtime) {
		o := rt.Alloc("o", 1024, nil, jade.OnProcessor(0))
		for round := 0; round < 4; round++ {
			for i := 0; i < 8; i++ {
				rt.WithOnly(func(s *jade.Spec) { s.RdWr(o) }, 10e-6, nil, jade.PlaceOn(1))
			}
			rt.Wait()
		}
	})
	fg, st, err := g.Fuse(tinyOpts())
	if err != nil {
		t.Fatalf("Fuse: %v", err)
	}
	if st.TasksFused == 0 {
		t.Fatalf("no fusion on the fine-grained chain; stats = %+v", st)
	}
	cfg := jade.Config{}
	mk := func() jade.Platform { return ipsc.New(ipsc.DefaultConfig(2, ipsc.TaskPlacement)) }
	orig, err := g.Replay(mk(), cfg)
	if err != nil {
		t.Fatalf("Replay original: %v", err)
	}
	fused, err := fg.Replay(mk(), cfg)
	if err != nil {
		t.Fatalf("Replay fused: %v", err)
	}
	or, fr := orig.Report(), fused.Report()
	if fr.MsgCount >= or.MsgCount {
		t.Fatalf("fused MsgCount = %d, want below unfused %d", fr.MsgCount, or.MsgCount)
	}
	if fr.ExecTimeSec >= or.ExecTimeSec {
		t.Fatalf("fused ExecTimeSec = %g, want below unfused %g", fr.ExecTimeSec, or.ExecTimeSec)
	}
}
