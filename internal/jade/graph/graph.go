// Package graph captures one execution of a Jade program into a
// compact, immutable task graph, and replays that graph into any
// jade.Platform byte-identically to a direct run.
//
// Jade's premise (paper §2) is that access specifications and task
// costs are known before tasks execute, so everything a machine model
// consumes — the object set, the task sequence with access specs and
// compute costs, segment structure, serial phases, and synchronization
// points — is a pure function of the program and its inputs,
// independent of the machine model and optimization toggles. Capture
// runs the program's front-end once against a recording platform under
// a work-free runtime, so no body runs at all; Replay re-issues the
// recorded runtime calls against a real machine model, skipping the
// front-end too. One graph replays both timed and work-free runs, so a
// sweep over machine models, locality levels and the work-free setting
// builds each application once instead of once per cell.
//
// A graph is its replay plan — the capture runtime's synchronizer,
// frozen: the materialized objects and tasks, their access lists with
// versions, and the transitively reduced dependence edges — plus the op
// stream and serial phases that order them. Nothing in the graph
// aliases runtime state, so one Graph can be replayed concurrently from
// many goroutines; each replay adds only a few flat state slices, which
// a runtime reused from replay to replay keeps (ReplayWith).
//
// Replay reproduces measurements, not application outputs: a graph
// never retains a body, and no platform reads one — a task's simulated
// cost is the work it declared. Bodies run only in direct execution.
package graph

import (
	"errors"
	"fmt"

	"repro/internal/jade"
	"repro/internal/metrics"
)

// opKind is one event in the captured main-program order.
type opKind uint8

const (
	opAlloc  opKind = iota // next object allocated
	opTask                 // next task created
	opSerial               // next serial phase (accesses + work)
	opWait                 // Runtime.Wait (platform drain)
	opReset                // Runtime.ResetMetrics (drain + stats reset)
)

// serialDef is one serial phase: a span of the graph's serial-access
// arena (the main program's own accesses) plus the work charged to the
// main processor.
type serialDef struct {
	acc0, accN int32
	work       float64
}

// Graph is an immutable capture of one program execution. Create one
// with Capture; replay it any number of times, from any goroutine.
type Graph struct {
	procs    int
	workFree bool

	ops        []opKind
	serials    []serialDef
	serialAccs []jade.Access
	plan       *jade.ReplayPlan
}

// Procs returns the processor count the graph was captured at. Apps
// shape their task structure around Runtime.Processors (replica
// counts, block distributions), so a graph only replays onto a
// platform with the same count.
func (g *Graph) Procs() int { return g.procs }

// WorkFree reports whether the graph is a work-free view: its tasks
// carry no work and no segments, so it replays work-free runs only.
func (g *Graph) WorkFree() bool { return g.workFree }

// WorkFreeView returns the graph as a work-free run sees it: every
// task's work zeroed and its segments dropped, everything else shared.
// A work-free run replays identically from either graph; the view
// matters to passes that read work or segments, such as Fuse, which
// should judge every task of a work-free run tiny.
func (g *Graph) WorkFreeView() *Graph {
	v, plan := *g, *g.plan
	tasks := make([]jade.Task, len(plan.Tasks))
	plan.Tasks = make([]*jade.Task, len(tasks))
	for i, t := range g.plan.Tasks {
		tasks[i] = jade.Task{ID: t.ID, Accesses: t.Accesses, Placed: t.Placed}
		plan.Tasks[i] = &tasks[i]
	}
	v.workFree, v.plan = true, &plan
	return &v
}

// TaskCount returns the number of captured tasks.
func (g *Graph) TaskCount() int { return len(g.plan.Tasks) }

// Tasks returns the captured tasks in creation order, body-free; a
// replay schedules exactly these. The slice and the tasks are shared
// by every replay: read them, never write them.
func (g *Graph) Tasks() []*jade.Task { return g.plan.Tasks }

// ObjectCount returns the number of captured object allocations.
func (g *Graph) ObjectCount() int { return len(g.plan.Objects) }

// ErrPlatformReused is returned when a platform handed to Replay (or a
// Variant factory) has been attached to a runtime since it was built
// or reset. A machine model accumulates virtual time and statistics
// over a run, so replaying into a used one would silently fold two
// runs' measurements together; the machines' Reset detaches them.
var ErrPlatformReused = errors.New("graph: platform already ran a runtime; replay needs a fresh or reset platform")

// attachChecker is implemented by the machine models: Attached reports
// whether a runtime has been bound to the platform since it was built
// or reset. Platforms that don't implement it (e.g. test doubles) skip
// the check.
type attachChecker interface{ Attached() bool }

// Replay feeds the captured graph into the platform and returns the
// run's measurements, exactly as if the original program had been
// executed against it. The platform must be fresh or reset (no run
// since) and match the capture's processor count; a work-free view
// replays work-free runs only. It replays through a new runtime; see
// ReplayWith for one that reuses a runtime.
func (g *Graph) Replay(p jade.Platform, cfg jade.Config) (*metrics.Run, error) {
	return g.ReplayWith(new(jade.Runtime), p, cfg)
}

// ReplayWith is Replay through rt, which it resets in place
// (jade.Runtime.ResetReplay): a zero runtime, or one an earlier replay
// finished with. It is the one function that drives a platform from
// the op stream: the runtime is the synchronizer rebuilt from the
// graph's plan, so per-run cost is a few flat state slices, not a
// re-registration, and nothing once rt has replayed a plan as large.
func (g *Graph) ReplayWith(rt *jade.Runtime, p jade.Platform, cfg jade.Config) (*metrics.Run, error) {
	if n := p.Processors(); n != g.procs {
		return nil, fmt.Errorf("graph: captured at %d processors, platform has %d", g.procs, n)
	}
	if g.workFree && !cfg.WorkFree {
		return nil, errors.New("graph: a work-free view cannot replay a timed run")
	}
	if c, ok := p.(attachChecker); ok && c.Attached() {
		return nil, ErrPlatformReused
	}
	rt.ResetReplay(p, cfg, g.plan)
	oi, ti, si := 0, 0, 0
	for _, op := range g.ops {
		switch op {
		case opAlloc:
			rt.ReplayObject(g.plan.Objects[oi])
			oi++
		case opTask:
			rt.ReplayTask(g.plan.Tasks[ti])
			ti++
		case opSerial:
			d := &g.serials[si]
			si++
			rt.ReplaySerial(d.work, g.serialAccs[d.acc0:d.accN:d.accN])
		case opWait:
			rt.Wait()
		case opReset:
			rt.ResetMetrics()
		}
	}
	return rt.Finish(), nil
}
