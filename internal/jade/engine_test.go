package jade_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/apps/ocean"
	"repro/internal/jade"
	"repro/internal/metrics"
)

// This file checks the dependence engine against the reference queue
// model (queue_test.go): both register the same program and complete
// the same tasks in the same seeded random order, and they must agree
// on every Register result, every assigned version and the set of
// tasks each completion enables.

// op is one event of a recorded program: a task (task >= 0), a serial
// phase's accesses, or a barrier.
type op struct {
	task    int
	serial  []jade.Access
	barrier bool
}

// program is a recorded front-end: its objects, its tasks in creation
// order and the order of tasks, serial phases and barriers.
type program struct {
	objs  []*jade.Object
	tasks []*jade.Task
	ops   []op
}

// recording is the platform that records a program. Its Drain completes
// every created task in creation order, which is always legal.
type recording struct {
	rt    *jade.Runtime
	procs int
	p     *program
	next  int
}

func (r *recording) Attach(rt *jade.Runtime)      { r.rt = rt }
func (r *recording) Processors() int              { return r.procs }
func (r *recording) ObjectAllocated(*jade.Object) {}
func (r *recording) TaskEnabled(*jade.Task)       {}
func (r *recording) SerialWork(float64)           {}
func (r *recording) Stats() *metrics.Run          { return &metrics.Run{} }
func (r *recording) ResetStats()                  {}
func (r *recording) TaskCreated(t *jade.Task, _ bool) {
	r.p.ops = append(r.p.ops, op{task: int(t.ID)})
}
func (r *recording) MainTouches(accs []jade.Access) {
	r.p.ops = append(r.p.ops, op{task: -1, serial: slices.Clone(accs)})
}
func (r *recording) Drain() {
	for ts := r.rt.Tasks(); r.next < len(ts); r.next++ {
		r.rt.RunBody(ts[r.next])
		r.rt.TaskDone(ts[r.next])
	}
	r.p.ops = append(r.p.ops, op{task: -1, barrier: true})
}

func record(procs int, run func(*jade.Runtime)) *program {
	r := &recording{procs: procs, p: &program{}}
	rt := jade.New(r, jade.Config{WorkFree: true})
	run(rt)
	rt.Finish()
	r.p.objs, r.p.tasks = rt.Objects(), rt.Tasks()
	return r.p
}

// copies returns fresh objects and tasks mirroring the program's, for
// one engine to register: registration writes versions into them.
func (p *program) copies() ([]*jade.Object, []*jade.Task) {
	objs := make([]*jade.Object, len(p.objs))
	for i, o := range p.objs {
		objs[i] = &jade.Object{ID: o.ID, Name: o.Name}
	}
	tasks := make([]*jade.Task, len(p.tasks))
	for i, t := range p.tasks {
		c := &jade.Task{ID: t.ID, Placed: -1}
		for _, a := range t.Accesses {
			c.Accesses = append(c.Accesses, jade.Access{Obj: objs[a.Obj.ID], Mode: a.Mode})
		}
		for _, sg := range t.Segments {
			var rel []*jade.Object
			for _, o := range sg.Release {
				rel = append(rel, objs[o.ID])
			}
			c.Segments = append(c.Segments, jade.Segment{Release: rel})
		}
		tasks[i] = c
	}
	return objs, tasks
}

// serialCopy is a serial phase's accesses on objs, with the versions
// the recording assigned (what a replay carries).
func serialCopy(accs []jade.Access, objs []*jade.Object) []jade.Access {
	c := slices.Clone(accs)
	for i := range c {
		c[i].Obj = objs[c[i].Obj.ID]
	}
	return c
}

// engine is what the check drives: the product synchronizer, the
// reference queue model, or a replay of a frozen plan.
type engine interface {
	Register(*jade.Task) bool
	RegisterSerial([]jade.Access)
	Complete(*jade.Task) []*jade.Task
	CompleteEntry(*jade.Task, *jade.Object) []*jade.Task
}

// replayed adapts a replay engine: its tasks were registered when the
// plan was frozen, so Register reads the initial pending count and
// serial phases carry baked-in versions.
type replayed struct {
	*jade.Synchronizer
	plan *jade.ReplayPlan
}

func (r replayed) Register(t *jade.Task) bool   { return r.plan.InitPending[t.ID] == 0 }
func (r replayed) RegisterSerial([]jade.Access) {}

// check drives the reference model and eng (registering tasks, whose
// objects are objs) through one seeded random legal completion order
// of p. A step completes a whole ready task, or releases one segment's
// objects of a staged task early. With interleave set, steps also run
// between registrations, as on the native runtime; otherwise only at
// barriers, as a plan is replayed.
func check(t *testing.T, p *program, eng engine, objs []*jade.Object, tasks []*jade.Task, seed int64, interleave bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ref := jade.NewQueueSynchronizer()
	refObjs, refTasks := p.copies()

	var ready []int           // enabled, not completed
	released := map[int]int{} // staged task -> segments released so far
	completed, steps := 0, 0
	compare := func(what string, want, got []*jade.Task) {
		t.Helper()
		steps++
		ids := func(ts []*jade.Task) (out []jade.TaskID) {
			for _, x := range ts {
				out = append(out, x.ID)
			}
			return out
		}
		if w, g := ids(want), ids(got); !slices.Equal(w, g) {
			t.Fatalf("seed %d step %d (%s): reference enabled %v, engine %v", seed, steps, what, w, g)
		}
		for _, x := range got {
			ready = append(ready, int(x.ID))
		}
	}
	step := func() {
		k := rng.Intn(len(ready))
		x := ready[k]
		if segs := tasks[x].Segments; released[x] < len(segs)-1 && rng.Intn(2) == 0 {
			for i, o := range segs[released[x]].Release {
				ro := refTasks[x].Segments[released[x]].Release[i]
				compare(fmt.Sprintf("task %d releases %s", x, o.Name),
					ref.CompleteEntry(refTasks[x], ro), eng.CompleteEntry(tasks[x], o))
			}
			released[x]++
			return
		}
		ready = slices.Delete(ready, k, k+1)
		compare(fmt.Sprintf("task %d completes", x), ref.Complete(refTasks[x]), eng.Complete(tasks[x]))
		completed++
	}
	for _, o := range p.ops {
		switch {
		case o.barrier:
			for len(ready) > 0 {
				step()
			}
		case o.task < 0:
			want, got := serialCopy(o.serial, refObjs), serialCopy(o.serial, objs)
			ref.RegisterSerial(want)
			eng.RegisterSerial(got)
			for i := range want {
				if want[i].RequiredVersion != got[i].RequiredVersion {
					t.Fatalf("serial access %d: reference version %d, engine %d", i, want[i].RequiredVersion, got[i].RequiredVersion)
				}
			}
		default:
			x := o.task
			want, got := ref.Register(refTasks[x]), eng.Register(tasks[x])
			if want != got {
				t.Fatalf("seed %d task %d: reference enabled=%t at registration, engine %t", seed, x, want, got)
			}
			for i, a := range tasks[x].Accesses {
				if v := refTasks[x].Accesses[i].RequiredVersion; a.RequiredVersion != v {
					t.Fatalf("task %d access %d: reference version %d, engine %d", x, i, v, a.RequiredVersion)
				}
			}
			if got {
				ready = append(ready, x)
			}
			for interleave && len(ready) > 0 && rng.Intn(3) > 0 {
				step()
			}
		}
	}
	for len(ready) > 0 {
		step()
	}
	if completed != len(tasks) {
		t.Fatalf("seed %d: %d of %d tasks completed", seed, completed, len(tasks))
	}
}

// randomProgram creates seeded random tasks over a few objects, half
// the declarations reads, some of them staged with early releases, and
// an occasional barrier followed by a serial phase: every read/write
// interleaving the reduction has to get right, including writes after
// several readers that race their last writer's successors.
func randomProgram(seed int64) func(*jade.Runtime) {
	return func(rt *jade.Runtime) {
		rng := rand.New(rand.NewSource(seed))
		objs := make([]*jade.Object, 6)
		for i := range objs {
			objs[i] = rt.Alloc(fmt.Sprintf("o%d", i), 64, nil)
		}
		declare := func(s *jade.Spec, o *jade.Object) {
			switch rng.Intn(4) {
			case 0, 1:
				s.Rd(o)
			case 2:
				s.Wr(o)
			default:
				s.RdWr(o)
			}
		}
		for k := 0; k < 80; k++ {
			touched := rng.Perm(len(objs))[:1+rng.Intn(3)]
			spec := func(s *jade.Spec) {
				for _, i := range touched {
					declare(s, objs[i])
				}
			}
			if len(touched) > 1 && rng.Intn(4) == 0 {
				segs := make([]jade.Segment, len(touched))
				for i, o := range touched[:len(touched)-1] {
					segs[i].Release = []*jade.Object{objs[o]}
				}
				rt.WithOnlyStaged(spec, segs)
			} else {
				rt.WithOnly(spec, 1e-3, nil)
			}
			if rng.Intn(25) == 0 {
				rt.Wait()
				rt.Serial(0, nil, func(s *jade.Spec) { declare(s, objs[rng.Intn(len(objs))]) })
			}
		}
	}
}

// stencil is a placed nearest-neighbour sweep with reductions, waits,
// an untimed init phase and serial phases.
func stencil(rt *jade.Runtime) {
	n := rt.Processors()
	grid := make([]*jade.Object, n)
	for i := range grid {
		grid[i] = rt.Alloc(fmt.Sprintf("grid[%d]", i), 4096, nil, jade.OnProcessor(i))
	}
	sum := rt.Alloc("sum", 256, nil)
	for i, o := range grid {
		rt.WithOnly(func(s *jade.Spec) { s.Wr(o) }, 1e-3, nil, jade.PlaceOn(i))
	}
	rt.ResetMetrics()
	for iter := 0; iter < 3; iter++ {
		for i := range grid {
			o, left := grid[i], grid[(i+n-1)%n]
			rt.WithOnly(func(s *jade.Spec) { s.RdWr(o); s.Rd(left) }, 2e-3, nil, jade.PlaceOn(i))
		}
		rt.WithOnly(func(s *jade.Spec) {
			s.RdWr(sum)
			for _, o := range grid {
				s.Rd(o)
			}
		}, 1e-3, nil)
		rt.Wait()
		rt.Serial(5e-4, nil, func(s *jade.Spec) { s.RdWr(sum) })
	}
}

// staged holds a through its first segment only, so a's reader can
// start mid-task while b's waits for full completion.
func staged(rt *jade.Runtime) {
	a := rt.Alloc("a", 8192, nil)
	b := rt.Alloc("b", 8192, nil, jade.OnProcessor(1))
	rt.WithOnlyStaged(func(s *jade.Spec) { s.Wr(a); s.Wr(b) }, []jade.Segment{
		{Work: 2e-3, Release: []*jade.Object{a}},
		{Work: 4e-3},
	})
	rt.WithOnly(func(s *jade.Spec) { s.Rd(a) }, 1e-2, nil)
	rt.WithOnly(func(s *jade.Spec) { s.Rd(b) }, 1e-3, nil)
	rt.WithOnly(func(s *jade.Spec) { s.Wr(a); s.Rd(b) }, 1e-3, nil)
	rt.Wait()
}

// The engine must agree with the reference queue model at every step:
// driven live, with completions and early releases interleaved with
// registrations, and replayed from the plan frozen after a run that
// completed tasks only at barriers.
func TestEngineMatchesQueueModel(t *testing.T) {
	for _, c := range []struct {
		name string
		p    *program
	}{
		{"stencil", record(4, stencil)},
		{"staged", record(2, staged)},
		{"ocean", record(8, func(rt *jade.Runtime) { ocean.Run(rt, ocean.Small()) })},
		{"random1", record(2, randomProgram(1))},
		{"random2", record(2, randomProgram(2))},
		{"random3", record(2, randomProgram(3))},
		{"random4", record(2, randomProgram(4))},
	} {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				objs, tasks := c.p.copies()
				check(t, c.p, jade.NewSynchronizer(), objs, tasks, seed, true)

				objs, tasks = c.p.copies()
				live := jade.NewSynchronizer()
				check(t, c.p, live, objs, tasks, seed, false)
				plan := live.Plan(objs, tasks)
				check(t, c.p, replayed{jade.ReplaySynchronizer(plan), plan}, objs, tasks, seed+100, false)
			}
		})
	}
}
