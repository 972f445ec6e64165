package graph

import (
	"fmt"

	"repro/internal/jade"
	"repro/internal/metrics"
)

// Capture executes run's front-end once against a recording platform
// with the given processor count, and returns the captured graph. The
// front-end runs under a work-free runtime, so no task, segment or
// serial body ever runs: a task's simulated cost is the work it
// declared, and Jade programs declare their task structure
// independently of body results. The graph records that declared work
// and the staged segments, so it replays both timed and work-free runs.
// With workFree set, Capture returns the graph's WorkFreeView instead.
//
// procs matters: applications shape their task structure around
// Runtime.Processors (per-processor replicas, block distributions,
// placement arithmetic), so one graph is captured per processor count.
func Capture(procs int, workFree bool, run func(*jade.Runtime)) *Graph {
	if procs < 1 {
		panic(fmt.Sprintf("graph: capture with %d processors", procs))
	}
	rec := &recorder{procs: procs}
	rt := jade.New(rec, jade.Config{WorkFree: true})
	run(rt)
	rt.Finish()
	g := rec.finish()
	if workFree {
		return g.WorkFreeView()
	}
	return g
}

// recorder is the capturing jade.Platform. It appends one op per
// runtime event and retains the created tasks, which finish copies,
// body-free, into the graph once the run is over.
type recorder struct {
	rt    *jade.Runtime
	procs int
	tasks []*jade.Task
	next  int // first task Drain has not yet executed

	ops     []opKind
	serials []serialDef
	// serialAccs holds the serial phases' accesses; Obj points at the
	// runtime's object until finish.
	serialAccs []jade.Access
	// Serial accesses arrive via MainTouches immediately before the
	// matching SerialWork; the span waits here between the two calls.
	pendAcc0, pendAccN int32

	stats metrics.Run
}

func (r *recorder) Attach(rt *jade.Runtime) { r.rt = rt }

func (r *recorder) Processors() int { return r.procs }

func (r *recorder) ObjectAllocated(*jade.Object) { r.ops = append(r.ops, opAlloc) }

func (r *recorder) TaskCreated(t *jade.Task, enabled bool) {
	r.tasks = append(r.tasks, t)
	r.ops = append(r.ops, opTask)
}

func (r *recorder) TaskEnabled(*jade.Task) {}

func (r *recorder) MainTouches(accs []jade.Access) {
	r.pendAcc0 = int32(len(r.serialAccs))
	r.serialAccs = append(r.serialAccs, accs...)
	r.pendAccN = int32(len(r.serialAccs))
}

func (r *recorder) SerialWork(d float64) {
	r.serials = append(r.serials, serialDef{acc0: r.pendAcc0, accN: r.pendAccN, work: d})
	r.pendAcc0, r.pendAccN = 0, 0
	r.ops = append(r.ops, opSerial)
}

// Drain completes every not-yet-completed task in creation order, so
// tasks registered after it skip everything before it, as on any
// platform. The work-free runtime has nil'd every task body, so RunBody
// runs nothing. Dependences only flow from lower task IDs to higher
// ones, so serial ID order is always a legal schedule; early releases
// need no special handling because full completion subsumes them.
func (r *recorder) Drain() {
	for ; r.next < len(r.tasks); r.next++ {
		r.rt.RunBody(r.tasks[r.next])
		r.rt.TaskDone(r.tasks[r.next])
	}
	r.ops = append(r.ops, opWait)
}

func (r *recorder) Stats() *metrics.Run { return &r.stats }

func (r *recorder) ResetStats() {
	// Runtime.ResetMetrics always drains first, so the previous op is
	// the drain's wait; fold the pair into a single reset event.
	if n := len(r.ops); n > 0 && r.ops[n-1] == opWait {
		r.ops[n-1] = opReset
		return
	}
	panic("graph: ResetStats without a preceding Drain")
}

// finish copies the runtime's objects and tasks into the graph — no
// payloads, no bodies, every object pointer redirected to the copy —
// and freezes the runtime's synchronizer over the copies as the
// graph's replay plan.
func (r *recorder) finish() *Graph {
	// Runtime.Finish ends every run with one more drain; Replay ends
	// with Runtime.Finish too, so drop the trailing wait rather than
	// replaying it twice. (Draining an idle machine is a no-op on
	// every platform, but the op would still be redundant.)
	if n := len(r.ops); n == 0 || r.ops[n-1] != opWait {
		panic("graph: capture did not end in a drain")
	}
	g := &Graph{procs: r.procs, ops: r.ops[:len(r.ops)-1],
		serials: r.serials, serialAccs: r.serialAccs}

	src := r.rt.Objects()
	arena := make([]jade.Object, len(src))
	objs := make([]*jade.Object, len(src))
	for i, o := range src {
		arena[i] = jade.Object{ID: o.ID, Name: o.Name, Size: o.Size, Home: o.Home}
		objs[i] = &arena[i]
	}
	for i := range g.serialAccs {
		g.serialAccs[i].Obj = objs[g.serialAccs[i].Obj.ID]
	}

	n := 0
	for _, t := range r.tasks {
		n += len(t.Accesses)
	}
	accs := make([]jade.Access, 0, n)
	taskArena := make([]jade.Task, len(r.tasks))
	tasks := make([]*jade.Task, len(r.tasks))
	for i, t := range r.tasks {
		a0 := len(accs)
		for _, a := range t.Accesses {
			a.Obj = objs[a.Obj.ID]
			accs = append(accs, a)
		}
		taskArena[i] = jade.Task{ID: t.ID, Accesses: accs[a0:len(accs):len(accs)], Work: t.Work, Placed: t.Placed}
		tasks[i] = &taskArena[i]
		for _, sg := range t.Segments {
			cp := jade.Segment{Work: sg.Work}
			for _, o := range sg.Release {
				cp.Release = append(cp.Release, objs[o.ID])
			}
			taskArena[i].Segments = append(taskArena[i].Segments, cp)
		}
	}
	r.tasks = nil
	g.plan = r.rt.Plan(objs, tasks)
	return g
}
