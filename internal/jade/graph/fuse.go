package graph

import (
	"repro/internal/fuse"
	"repro/internal/jade"
)

// This file is the task-fusion half of the granularity pass (ROADMAP
// item 2): an op-stream rewrite that collapses chains of tiny,
// already-serialized tasks into single scheduled units, so a machine
// model pays one dispatch and one set of access-declaration messages
// per chain instead of per task.
//
// Fusion is a graph-to-graph transformation, not a replay mode: the
// fused result is an ordinary immutable Graph that replays through
// Replay like any capture, its plan frozen from a synchronizer the
// fused tasks register with in program order. Keeping the
// pass here — rather than inside a machine model — means every
// platform benefits identically and the unfused graph stays untouched
// for side-by-side sweeps.

// FuseStats reports what one Fuse pass did.
type FuseStats struct {
	// Chains is the number of fused units created (chains of length
	// >= 2 that replaced their members).
	Chains int
	// TasksFused is the number of tasks eliminated: the sum over
	// chains of (length - 1). The fused graph has exactly
	// TasksFused fewer tasks than the input.
	TasksFused int
}

// Fuse returns a copy of the graph with chains of tiny tasks collapsed
// into single tasks, plus statistics about what was fused. The
// receiver is not modified, and the copy shares its objects. The error
// is always nil: any capture can be fused, because a graph never
// retains a body that fusing would have to merge.
//
// Two consecutive opTask events fuse when every rule below holds; any
// other op (allocation, serial phase, barrier) ends the current chain.
//
//   - Both tasks are plain (no staged segments): a segment boundary is
//     an early-release point the fused unit would otherwise swallow.
//   - Same placement, so the fused unit runs where its members would.
//   - The candidate's object set is a subset of the chain head's
//     ("identical or nested" access specs): the fused access list stays
//     the head's list with modes widened, never a new object set that
//     could fetch data a member never declared.
//   - The candidate's modeled work is at or below Options.MaxWork, and
//     the chain is shorter than Options.MaxChain.
//   - The candidate conflicts with the chain (it shares an object with
//     the accumulated access list where at least one side writes).
//     Conflicting consecutive tasks were already serialized by the
//     synchronizer, so fusing them removes overhead without removing
//     parallelism; independent read-only chains are left alone.
//
// The fused task sits at the chain head's position with the head's
// object set, modes OR-ed over the members, and the members' work
// summed. Because members are consecutive and every member's conflict
// edges go through objects the head also declares, the fused task's
// dependence relation is exactly the union of its members': replaying
// the fused graph reaches the same final object versions as the
// unfused program, minus the per-task management overhead being
// removed.
func (g *Graph) Fuse(opt fuse.Options) (*Graph, FuseStats, error) {
	out := &Graph{procs: g.procs, workFree: g.workFree,
		ops:        make([]opKind, 0, len(g.ops)),
		serials:    make([]serialDef, 0, len(g.serials)),
		serialAccs: make([]jade.Access, 0, len(g.serialAccs)),
	}
	var st FuseStats
	src := g.plan.Tasks
	// A fused task keeps its head's access list, so the input's task
	// and access counts bound the output's and neither arena
	// reallocates: the synchronizer keeps pointers into both.
	n := 0
	for _, t := range src {
		n += len(t.Accesses)
	}
	tasks := make([]jade.Task, 0, len(src))
	accs := make([]jade.Access, 0, n)
	sy := jade.NewSynchronizer()
	drained := 0 // tasks before this one have completed in sy
	// emit registers a task with t's accesses, placement and segments;
	// a non-nil modes overrides the access modes.
	emit := func(t *jade.Task, work float64, modes []jade.Mode) {
		a0 := len(accs)
		for i, a := range t.Accesses {
			if modes != nil {
				a.Mode = modes[i]
			}
			accs = append(accs, jade.Access{Obj: a.Obj, Mode: a.Mode})
		}
		tasks = append(tasks, jade.Task{ID: jade.TaskID(len(tasks)), Accesses: accs[a0:len(accs):len(accs)],
			Work: work, Placed: t.Placed, Segments: t.Segments})
		sy.Register(&tasks[len(tasks)-1])
		out.ops = append(out.ops, opTask)
	}

	// chain state: the open chain's head (nil: none), the accumulated
	// mode per head access, the members absorbed and their summed work.
	var (
		head  *jade.Task
		modes []jade.Mode
		count int
		work  float64
	)
	flush := func() {
		if head == nil {
			return
		}
		emit(head, work, modes)
		if count > 1 {
			st.Chains++
			st.TasksFused += count - 1
		}
		head = nil
	}
	// start opens a fresh chain at task t.
	start := func(t *jade.Task) {
		head, count, work = t, 1, t.Work
		modes = modes[:0]
		for _, a := range t.Accesses {
			modes = append(modes, a.Mode)
		}
	}
	// headIndex is the position of o in the head's access list, or -1.
	headIndex := func(o *jade.Object) int {
		for i, a := range head.Accesses {
			if a.Obj == o {
				return i
			}
		}
		return -1
	}
	// absorb tries to add t to the open chain; it reports success.
	absorb := func(t *jade.Task) bool {
		if head == nil || count >= opt.MaxChain || t.Work > opt.MaxWork ||
			t.Placed != head.Placed || len(t.Segments) > 0 {
			return false
		}
		// Subset + conflict check against the accumulated head list.
		conflict := false
		for _, a := range t.Accesses {
			at := headIndex(a.Obj)
			if at < 0 {
				return false // not nested in the head's object set
			}
			if (modes[at]|a.Mode)&jade.Write != 0 {
				conflict = true
			}
		}
		if !conflict {
			return false
		}
		for _, a := range t.Accesses {
			modes[headIndex(a.Obj)] |= a.Mode
		}
		count++
		work += t.Work
		return true
	}

	ti, si := 0, 0
	for _, op := range g.ops {
		switch op {
		case opTask:
			t := src[ti]
			ti++
			if absorb(t) {
				continue
			}
			flush()
			if opt.Enabled() && len(t.Segments) == 0 && t.Work <= opt.MaxWork {
				start(t)
				continue
			}
			emit(t, t.Work, nil) // ineligible to head a chain: as-is
		case opSerial:
			flush()
			d := g.serials[si]
			si++
			nd := serialDef{acc0: int32(len(out.serialAccs)), work: d.work}
			out.serialAccs = append(out.serialAccs, g.serialAccs[d.acc0:d.accN]...)
			nd.accN = int32(len(out.serialAccs))
			sy.RegisterSerial(out.serialAccs[nd.acc0:nd.accN])
			out.serials = append(out.serials, nd)
			out.ops = append(out.ops, opSerial)
		case opWait, opReset:
			// Everything before a barrier completes before anything
			// after it registers.
			flush()
			for ; drained < len(tasks); drained++ {
				sy.Complete(&tasks[drained])
			}
			out.ops = append(out.ops, op)
		default: // allocation
			flush()
			out.ops = append(out.ops, op)
		}
	}
	flush()
	ptrs := make([]*jade.Task, len(tasks))
	for i := range tasks {
		ptrs[i] = &tasks[i]
	}
	out.plan = sy.Plan(g.plan.Objects, ptrs)
	return out, st, nil
}
