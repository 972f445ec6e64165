package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/apps/ocean"
	"repro/internal/jade"
)

// checkReducedEdges drives a jade.Synchronizer and the graph's reduced
// plan through one seeded random legal completion order, epoch by
// epoch, and fails at the first step where they enable different tasks.
// A step completes a whole task, or releases one segment's objects of a
// staged task early.
func checkReducedEdges(t *testing.T, g *Graph, seed int64) {
	t.Helper()
	pl := g.plan
	rng := rand.New(rand.NewSource(seed))

	// The synchronizer mutates its objects and tasks, so it gets copies.
	objs := make([]*jade.Object, len(pl.Objects))
	for i, o := range pl.Objects {
		objs[i] = &jade.Object{ID: o.ID, Name: o.Name, Size: o.Size}
	}
	tasks := make([]*jade.Task, len(pl.Tasks))
	for i, pt := range pl.Tasks {
		accs := make([]jade.Access, len(pt.Accesses))
		for k, a := range pt.Accesses {
			accs[k] = jade.Access{Obj: objs[a.Obj.ID], Mode: a.Mode}
		}
		tasks[i] = &jade.Task{ID: pt.ID, Accesses: accs}
	}
	sy := jade.NewSynchronizer()

	pending := append([]int32(nil), pl.InitPending...)
	done := make([]bool, pl.EntryStart[len(pl.Tasks)])
	// fire completes task x's not-yet-done plan entries — only those on
	// object o when o >= 0 — and returns the tasks it enables.
	fire := func(x int, o jade.ObjectID) []jade.TaskID {
		var newly []jade.TaskID
		for k, a := range pl.Tasks[x].Accesses {
			e := pl.EntryStart[x] + int32(k)
			if done[e] || (o >= 0 && a.Obj.ID != o) {
				continue
			}
			done[e] = true
			for _, s := range pl.Edges[pl.EdgeStart[e]:pl.EdgeStart[e+1]] {
				if pending[s]--; pending[s] == 0 {
					newly = append(newly, jade.TaskID(s))
				}
			}
		}
		slices.Sort(newly)
		return newly
	}
	var ready []int           // enabled, not completed
	released := map[int]int{} // staged task -> segments released so far
	completed, step := 0, 0
	check := func(what string, want []*jade.Task, got []jade.TaskID) {
		step++
		ids := make([]jade.TaskID, len(want))
		for i, w := range want {
			ids[i] = w.ID
		}
		if !slices.Equal(ids, got) {
			t.Fatalf("seed %d step %d (%s): synchronizer enabled %v, plan enabled %v", seed, step, what, ids, got)
		}
		for _, id := range got {
			ready = append(ready, int(id))
		}
	}
	drain := func() {
		for len(ready) > 0 {
			k := rng.Intn(len(ready))
			x := ready[k]
			if segs := pl.Tasks[x].Segments; released[x] < len(segs)-1 && rng.Intn(2) == 0 {
				for _, o := range segs[released[x]].Release {
					check(fmt.Sprintf("task %d releases %s", x, o.Name), sy.CompleteEntry(tasks[x], objs[o.ID]), fire(x, o.ID))
				}
				released[x]++
				continue
			}
			ready = slices.Delete(ready, k, k+1)
			check(fmt.Sprintf("task %d completes", x), sy.Complete(tasks[x]), fire(x, -1))
			completed++
		}
	}
	ti := 0
	for _, op := range g.ops {
		switch op {
		case opTask:
			enabled := sy.Register(tasks[ti])
			if enabled != (pl.InitPending[ti] == 0) {
				t.Fatalf("task %d: synchronizer enabled=%t at creation, plan pending %d", ti, enabled, pl.InitPending[ti])
			}
			if enabled {
				ready = append(ready, ti)
			}
			ti++
		case opWait, opReset:
			drain()
		}
	}
	drain()
	if completed != len(tasks) {
		t.Fatalf("seed %d: %d of %d tasks completed", seed, completed, len(tasks))
	}
}

func oceanSmall(rt *jade.Runtime) { ocean.Run(rt, ocean.Small()) }

// randomProgram creates seeded random tasks over a few objects, half the
// declarations reads, with an occasional barrier: every read/write
// interleaving the reduction has to get right, including writes after
// several readers that race their last writer's successors.
func randomProgram(seed int64) func(*jade.Runtime) {
	return func(rt *jade.Runtime) {
		rng := rand.New(rand.NewSource(seed))
		objs := make([]*jade.Object, 6)
		for i := range objs {
			objs[i] = rt.Alloc(fmt.Sprintf("o%d", i), 64, nil)
		}
		for k := 0; k < 80; k++ {
			rt.WithOnly(func(s *jade.Spec) {
				for _, i := range rng.Perm(len(objs))[:1+rng.Intn(3)] {
					switch rng.Intn(4) {
					case 0, 1:
						s.Rd(objs[i])
					case 2:
						s.Wr(objs[i])
					default:
						s.RdWr(objs[i])
					}
				}
			}, 1e-3, nil)
			if rng.Intn(25) == 0 {
				rt.Wait()
			}
		}
	}
}

// The plan's transitively reduced edges must enable exactly the tasks
// the synchronizer's full conflict relation enables, at every step of
// any legal completion order.
func TestReducedEdgesMatchSynchronizer(t *testing.T) {
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"stencil", Capture(4, false, stencil)},
		{"staged", Capture(2, false, staged)},
		{"ocean", Capture(8, true, oceanSmall)},
		{"random1", Capture(2, false, randomProgram(1))},
		{"random2", Capture(2, false, randomProgram(2))},
	}
	for _, c := range graphs {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				checkReducedEdges(t, c.g, seed)
			}
		})
	}
}

// The reduction keeps the plan small: a read keeps one edge, and a write
// one edge per read it follows. On Ocean, the most edge-heavy app (the
// full conflict relation has 13 665 edges over its 583 accesses at
// procs = 8), the edges stay within the access count.
func TestReducedEdgesBounded(t *testing.T) {
	pl := Capture(8, true, oceanSmall).plan
	edges, accs := len(pl.Edges), int(pl.EntryStart[len(pl.Tasks)])
	if edges > accs {
		t.Fatalf("ocean procs=8: %d edges for %d accesses", edges, accs)
	}
}
