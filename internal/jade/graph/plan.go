package graph

import "repro/internal/jade"

// This file builds a graph's shared replay plan: a one-time,
// structure-of-arrays precomputation of everything a synchronizer
// would re-derive per run. Objects, tasks, segments, and accesses —
// including the access versions the synchronizer would assign — are
// materialized once and shared read-only by every replay; the
// dependence structure is flattened into per-task initial pending
// counts and per-access-entry successor edge lists (see
// jade.ReplayPlan for why the static edges are exact). A replay then
// carries only flat per-run state.

// replayPlan pairs the jade-side plan with the access arena it indexes
// (serial phases reference access spans directly, not through a Task).
type replayPlan struct {
	rp   *jade.ReplayPlan
	accs []jade.Access
}

// sharedPlan returns the graph's replay plan, building it on first use.
// Concurrent callers share one build.
func (g *Graph) sharedPlan() *replayPlan {
	g.planOnce.Do(func() { g.plan = g.buildPlan() })
	return g.plan
}

// buildPlan walks the op stream once, mirroring exactly what the
// synchronizer observes on a sequential replay: accesses are assigned
// versions in program order, and each task's conflicting predecessors
// within its barrier epoch become initial pending counts plus successor
// edges on the predecessor's access entries. Barriers (opWait, opReset)
// clear the per-object queues, matching the fact that everything before
// a barrier has completed before anything after it registers.
func (g *Graph) buildPlan() *replayPlan {
	objArena := make([]jade.Object, len(g.objects))
	objs := make([]*jade.Object, len(g.objects))
	for i := range g.objects {
		d := &g.objects[i]
		o := &objArena[i]
		*o = jade.Object{ID: jade.ObjectID(i), Name: d.name, Size: d.size, Home: int(d.home)}
		objs[i] = o
	}

	rels := make([]*jade.Object, len(g.releases))
	for i, oi := range g.releases {
		rels[i] = objs[oi]
	}
	segs := make([]jade.Segment, len(g.segments))
	for i := range g.segments {
		sd := &g.segments[i]
		segs[i] = jade.Segment{Work: sd.work, Release: rels[sd.rel0:sd.relN:sd.relN]}
	}

	accs := make([]jade.Access, len(g.accs))
	taskArena := make([]jade.Task, len(g.tasks))
	tasks := make([]*jade.Task, len(g.tasks))

	// Entry space: one entry per task access, in task order.
	entryStart := make([]int32, len(g.tasks)+1)
	total := int32(0)
	for i := range g.tasks {
		entryStart[i] = total
		total += g.tasks[i].accN - g.tasks[i].acc0
	}
	entryStart[len(g.tasks)] = total

	initPending := make([]int32, len(g.tasks))
	edgeLists := make([][]int32, total)

	// Per-object state: writes counts versions across the whole run;
	// queues hold the current epoch's access entries per object and are
	// cleared at each barrier. touched tracks which queues are live so
	// clearing is O(epoch), not O(objects).
	writes := make([]int32, len(g.objects))
	type qent struct {
		mode  jade.Mode
		entry int32
	}
	queues := make([][]qent, len(g.objects))
	var touched []int32
	clearQueues := func() {
		for _, oi := range touched {
			queues[oi] = queues[oi][:0]
		}
		touched = touched[:0]
	}
	// fillVersions assigns versions to an access span in program order,
	// shared by serial phases and tasks.
	fillVersions := func(a0, aN int32) {
		for k := a0; k < aN; k++ {
			ad := &g.accs[k]
			accs[k] = jade.Access{
				Obj:             objs[ad.obj],
				Mode:            ad.mode,
				RequiredVersion: jade.Version(writes[ad.obj]),
			}
			if ad.mode&jade.Write != 0 {
				writes[ad.obj]++
			}
		}
	}

	oi, ti, si := 0, 0, 0
	for _, op := range g.ops {
		switch op {
		case opAlloc:
			oi++
		case opSerial:
			d := &g.serials[si]
			si++
			fillVersions(d.acc0, d.accN)
		case opTask:
			d := &g.tasks[ti]
			fillVersions(d.acc0, d.accN)
			e := entryStart[ti]
			for k := d.acc0; k < d.accN; k++ {
				ad := &g.accs[k]
				q := queues[ad.obj]
				if len(q) == 0 {
					touched = append(touched, ad.obj)
				}
				for _, prev := range q {
					if (prev.mode|ad.mode)&jade.Write != 0 {
						initPending[ti]++
						edgeLists[prev.entry] = append(edgeLists[prev.entry], int32(ti))
					}
				}
				queues[ad.obj] = append(q, qent{mode: ad.mode, entry: e})
				e++
			}
			t := &taskArena[ti]
			*t = jade.Task{
				ID:       jade.TaskID(ti),
				Accesses: accs[d.acc0:d.accN:d.accN],
				Work:     d.work,
				Placed:   int(d.placed),
			}
			if d.seg0 != d.segN && !g.workFree {
				// Work-free runs drop segments (WithStagedAccesses does
				// the same), and work-free captures never record them —
				// the guard only matters if that invariant ever changes.
				t.Segments = segs[d.seg0:d.segN:d.segN]
			}
			tasks[ti] = t
			ti++
		case opWait, opReset:
			clearQueues()
		}
	}

	edgeStart := make([]int32, total+1)
	n := 0
	for i, l := range edgeLists {
		edgeStart[i] = int32(n)
		n += len(l)
	}
	edgeStart[total] = int32(n)
	edges := make([]int32, 0, n)
	for _, l := range edgeLists {
		edges = append(edges, l...)
	}

	return &replayPlan{
		rp: &jade.ReplayPlan{
			Objects:     objs,
			Tasks:       tasks,
			InitPending: initPending,
			EntryStart:  entryStart,
			EdgeStart:   edgeStart,
			Edges:       edges,
		},
		accs: accs,
	}
}
