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
// Replay like any capture, with the dependence plan recomputed from
// the fused access spans. Keeping the
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
// receiver is not modified. Fusing requires a replayable (body-free)
// capture: a body cannot be merged because it was never recorded.
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
	if g.hasBodies {
		return nil, FuseStats{}, ErrNotReplayable
	}
	out := &Graph{procs: g.procs, workFree: g.workFree}
	var st FuseStats
	if len(g.ops) > 0 {
		out.ops = make([]opKind, 0, len(g.ops))
	}
	// Objects, segments, and releases are position-independent of task
	// fusion; copy the arenas wholesale. Accesses are rebuilt because
	// fused tasks get new spans.
	out.objects = append([]objectDef(nil), g.objects...)
	out.segments = append([]segmentDef(nil), g.segments...)
	out.releases = append([]int32(nil), g.releases...)
	out.accs = make([]accessDef, 0, len(g.accs))
	out.tasks = make([]taskDef, 0, len(g.tasks))
	out.serials = make([]serialDef, 0, len(g.serials))

	// chain state: the pending fused task, plus the accumulated mode
	// per object of the head's access list.
	var (
		open  bool
		head  taskDef // head's spans into g (acc span rewritten on flush)
		modes []jade.Mode
		objAt []int32 // object index per head access
		count int     // members absorbed so far
		work  float64
	)
	flush := func() {
		if !open {
			return
		}
		d := taskDef{acc0: int32(len(out.accs)), work: work, placed: head.placed,
			seg0: head.seg0, segN: head.segN}
		for i, oi := range objAt {
			out.accs = append(out.accs, accessDef{obj: oi, mode: modes[i]})
		}
		d.accN = int32(len(out.accs))
		out.tasks = append(out.tasks, d)
		out.ops = append(out.ops, opTask)
		if count > 1 {
			st.Chains++
			st.TasksFused += count - 1
		}
		open = false
	}
	// start opens a fresh chain at task d.
	start := func(d taskDef) {
		open, head, count, work = true, d, 1, d.work
		modes = modes[:0]
		objAt = objAt[:0]
		for k := d.acc0; k < d.accN; k++ {
			modes = append(modes, g.accs[k].mode)
			objAt = append(objAt, g.accs[k].obj)
		}
	}
	// absorb tries to add d to the open chain; it reports success.
	absorb := func(d taskDef) bool {
		if !open || count >= opt.MaxChain || d.work > opt.MaxWork ||
			d.placed != head.placed || d.seg0 != d.segN {
			return false
		}
		// Subset + conflict check against the accumulated head list.
		conflict := false
		for k := d.acc0; k < d.accN; k++ {
			a := &g.accs[k]
			at := -1
			for i, oi := range objAt {
				if oi == a.obj {
					at = i
					break
				}
			}
			if at < 0 {
				return false // not nested in the head's object set
			}
			if (modes[at]|a.mode)&jade.Write != 0 {
				conflict = true
			}
		}
		if !conflict {
			return false
		}
		for k := d.acc0; k < d.accN; k++ {
			a := &g.accs[k]
			for i, oi := range objAt {
				if oi == a.obj {
					modes[i] |= a.mode
					break
				}
			}
		}
		count++
		work += d.work
		return true
	}

	ti, si := 0, 0
	for _, op := range g.ops {
		switch op {
		case opTask:
			d := g.tasks[ti]
			ti++
			plain := d.seg0 == d.segN
			if absorb(d) {
				continue
			}
			flush()
			if opt.Enabled() && plain && d.work <= opt.MaxWork {
				start(d)
				continue
			}
			// Ineligible to head a chain: emit as-is (access span
			// copied so the output arena stays self-contained).
			nd := d
			nd.acc0 = int32(len(out.accs))
			out.accs = append(out.accs, g.accs[d.acc0:d.accN]...)
			nd.accN = int32(len(out.accs))
			out.tasks = append(out.tasks, nd)
			out.ops = append(out.ops, opTask)
		case opSerial:
			flush()
			d := g.serials[si]
			si++
			nd := serialDef{acc0: int32(len(out.accs)), work: d.work}
			out.accs = append(out.accs, g.accs[d.acc0:d.accN]...)
			nd.accN = int32(len(out.accs))
			out.serials = append(out.serials, nd)
			out.ops = append(out.ops, opSerial)
		case opAlloc:
			flush()
			out.ops = append(out.ops, opAlloc)
		case opWait, opReset:
			flush()
			out.ops = append(out.ops, op)
		}
	}
	flush()
	return out, st, nil
}
