package graph

import "repro/internal/jade"

// This file builds a graph's replay plan: a one-time, structure-of-
// arrays precomputation of everything a synchronizer would re-derive
// per run. Objects, tasks, segments, and accesses — including the
// access versions the synchronizer would assign — are materialized once
// and shared read-only by every replay; the dependence structure is
// flattened into per-task initial pending counts and per-access-entry
// successor edge lists (see jade.ReplayPlan for why static edges are
// exact). A replay then carries only flat per-run state.

// link makes tasks the graph's plan: it numbers them, assigns every
// access its version in program order (serial phases included), and
// derives each task's initial pending count and the successor edges of
// every access entry. Barriers (opWait, opReset) reset the dependence
// state, matching the fact that everything before a barrier has
// completed before anything after it registers.
//
// The edges are the transitive reduction of the synchronizer's
// conflict relation, per object: a read waits only on the last write,
// and a write waits on the reads since the last write, or on the last
// write if there are none. Every dropped edge runs from an entry that
// must complete before one of the kept predecessors can even be
// enabled, so each task still enables at exactly the completion the
// full relation enables it at.
func (g *Graph) link(objs []*jade.Object, tasks []jade.Task) {
	ptrs := make([]*jade.Task, len(tasks))
	entryStart := make([]int32, len(tasks)+1)
	for i := range tasks {
		tasks[i].ID = jade.TaskID(i)
		ptrs[i] = &tasks[i]
		entryStart[i+1] = entryStart[i] + int32(len(tasks[i].Accesses))
	}
	nEntries := entryStart[len(tasks)]
	initPending := make([]int32, len(tasks))

	writes := make([]jade.Version, len(objs))
	version := func(accs []jade.Access) {
		for i := range accs {
			a := &accs[i]
			a.RequiredVersion = writes[a.Obj.ID]
			if a.Writes() {
				writes[a.Obj.ID]++
			}
		}
	}

	// Per-object state within the current barrier epoch: lastWrite is
	// the last write's entry + 1 (0: none yet), readers the read entries
	// since it. touched lists the objects to reset at the next barrier,
	// so a reset is O(epoch), not O(objects).
	lastWrite := make([]int32, len(objs))
	readers := make([][]int32, len(objs))
	var touched []jade.ObjectID
	// Edges in discovery order: from entry src[i] to task dst[i].
	var src, dst []int32
	ti, si := 0, 0
	waitOn := func(e int32) {
		src, dst = append(src, e), append(dst, int32(ti))
		initPending[ti]++
	}

	for _, op := range g.ops {
		switch op {
		case opSerial:
			d := &g.serials[si]
			si++
			version(g.serialAccs[d.acc0:d.accN])
		case opTask:
			accs := tasks[ti].Accesses
			version(accs)
			for i, a := range accs {
				e, o := entryStart[ti]+int32(i), a.Obj.ID
				if lastWrite[o] == 0 && len(readers[o]) == 0 {
					touched = append(touched, o)
				}
				switch {
				case !a.Writes():
					if w := lastWrite[o]; w != 0 {
						waitOn(w - 1)
					}
					readers[o] = append(readers[o], e)
					continue
				case len(readers[o]) > 0:
					for _, r := range readers[o] {
						waitOn(r)
					}
				case lastWrite[o] != 0:
					waitOn(lastWrite[o] - 1)
				}
				lastWrite[o], readers[o] = e+1, readers[o][:0]
			}
			ti++
		case opWait, opReset:
			for _, o := range touched {
				lastWrite[o], readers[o] = 0, readers[o][:0]
			}
			touched = touched[:0]
		}
	}

	// Group the edges by source entry. The counting sort is stable, so
	// each entry's successors stay in creation order.
	edgeStart := make([]int32, nEntries+1)
	for _, s := range src {
		edgeStart[s+1]++
	}
	for e := int32(0); e < nEntries; e++ {
		edgeStart[e+1] += edgeStart[e]
	}
	next := append([]int32(nil), edgeStart[:nEntries]...)
	edges := make([]int32, len(dst))
	for i, s := range src {
		edges[next[s]] = dst[i]
		next[s]++
	}

	g.plan = &jade.ReplayPlan{
		Objects:     objs,
		Tasks:       ptrs,
		InitPending: initPending,
		EntryStart:  entryStart,
		EdgeStart:   edgeStart,
		Edges:       edges,
	}
}
