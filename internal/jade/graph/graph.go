// Package graph captures one execution of a Jade program into a
// compact, immutable task graph, and replays that graph into any
// jade.Platform byte-identically to a direct run.
//
// Jade's premise (paper §2) is that access specifications are known
// before tasks execute, so everything a machine model consumes — the
// object set, the task sequence with access specs and compute costs,
// segment structure, serial phases, and synchronization points — is a
// pure function of the program and its inputs, independent of the
// machine model and optimization toggles. Capture runs the program
// front-end once against a recording platform; Replay re-issues the
// recorded runtime calls against a real machine model, skipping the
// front-end entirely. A sweep over machine models and locality levels
// then builds each application once instead of once per cell.
//
// The graph is stored arena-style: flat slices of object, task,
// access, segment, and serial-phase descriptors indexed by spans, plus
// a byte-per-event op stream. Nothing in the graph aliases runtime
// state, so one Graph can be replayed concurrently from many
// goroutines; the arenas are materialized once into a shared read-only
// plan (plan.go), and each replay adds only a few flat state slices.
//
// Replay reproduces measurements, not application outputs: task and
// segment bodies are not recorded (a captured body closure would be
// tied to the capture run's heap), so a graph whose run carried bodies
// refuses to replay — callers fall back to direct execution. Work-free
// runs (Config.WorkFree), where the runtime itself strips bodies, are
// always replayable. Serial-phase bodies execute inside the Runtime
// and are invisible to platforms; they run during capture and are
// skipped on replay, which is safe because replay only promises the
// platform-visible call sequence, and that never depends on them.
package graph

import (
	"errors"
	"fmt"
	"sync"

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

// objectDef is an interned object descriptor: everything a platform
// sees of an object except its payload, which replay never needs
// because replayable graphs carry no bodies to read it.
type objectDef struct {
	name string
	size int
	home int32
}

// accessDef is one declared access, with the object interned by index.
// RequiredVersion is not stored: the synchronizer recomputes it
// deterministically from the declaration order on replay.
type accessDef struct {
	obj  int32
	mode jade.Mode
}

// taskDef describes one task as spans into the access and segment
// arenas. segN == seg0 for plain (non-staged) tasks.
type taskDef struct {
	acc0, accN int32
	seg0, segN int32
	work       float64
	placed     int32
}

// segmentDef is one stage of a staged task; the release list is a span
// of object indices.
type segmentDef struct {
	rel0, relN int32
	work       float64
}

// serialDef is one serial phase: the main program's own accesses plus
// the work charged to the main processor.
type serialDef struct {
	acc0, accN int32
	work       float64
}

// Graph is an immutable capture of one program execution. Create one
// with Capture; replay it any number of times, from any goroutine.
type Graph struct {
	procs     int
	workFree  bool
	hasBodies bool

	objects  []objectDef
	tasks    []taskDef
	serials  []serialDef
	segments []segmentDef
	accs     []accessDef
	releases []int32
	ops      []opKind

	// planOnce lazily builds the shared replay plan (see plan.go): one
	// materialization of objects, tasks, and synchronization structure
	// that every replay of this graph borrows read-only.
	planOnce sync.Once
	plan     *replayPlan
}

// Procs returns the processor count the graph was captured at. Apps
// shape their task structure around Runtime.Processors (replica
// counts, block distributions), so a graph only replays onto a
// platform with the same count.
func (g *Graph) Procs() int { return g.procs }

// WorkFree reports whether the graph was captured under a work-free
// configuration. Replay requires the same setting: machine models gate
// access costing on it.
func (g *Graph) WorkFree() bool { return g.workFree }

// Replayable reports whether the capture carried no task or segment
// bodies, which is what Replay requires.
func (g *Graph) Replayable() bool { return !g.hasBodies }

// TaskCount returns the number of captured tasks.
func (g *Graph) TaskCount() int { return len(g.tasks) }

// ObjectCount returns the number of captured object allocations.
func (g *Graph) ObjectCount() int { return len(g.objects) }

// ErrNotReplayable is returned by Replay when the captured run carried
// task or segment bodies; replaying it would silently skip the bodies,
// so the caller must execute the program directly instead.
var ErrNotReplayable = errors.New("graph: captured run has task bodies; execute directly")

// ErrPlatformReused is returned when a platform handed to Replay (or a
// Variant factory) has already been attached to a runtime. A machine
// model accumulates virtual time and statistics across its life, so
// replaying into a used one would silently fold two runs' measurements
// together.
var ErrPlatformReused = errors.New("graph: platform already ran a runtime; replay needs a fresh platform")

// attachChecker is implemented by the machine models: Attached reports
// whether a runtime has ever been bound to the platform. Platforms
// that don't implement it (e.g. test doubles) skip the freshness check.
type attachChecker interface{ Attached() bool }

// Replay feeds the captured graph into the platform and returns the
// run's measurements, exactly as if the original program had been
// executed against it. The platform must be fresh (no prior runs) and
// match the capture's processor count; cfg must match the capture's
// work-free setting. It is the one function that drives a platform
// from the op stream: the runtime rides the graph's shared plan (see
// plan.go), so per-run cost is a few flat state slices, not a
// synchronizer re-walk.
func (g *Graph) Replay(p jade.Platform, cfg jade.Config) (*metrics.Run, error) {
	if g.hasBodies {
		return nil, ErrNotReplayable
	}
	if n := p.Processors(); n != g.procs {
		return nil, fmt.Errorf("graph: captured at %d processors, platform has %d", g.procs, n)
	}
	if cfg.WorkFree != g.workFree {
		return nil, fmt.Errorf("graph: captured with work-free=%t, replay asked work-free=%t", g.workFree, cfg.WorkFree)
	}
	if c, ok := p.(attachChecker); ok && c.Attached() {
		return nil, ErrPlatformReused
	}
	pl := g.sharedPlan()
	rt := jade.NewReplay(p, cfg, pl.rp)
	oi, ti, si := 0, 0, 0
	for _, op := range g.ops {
		switch op {
		case opAlloc:
			rt.ReplayObject(pl.rp.Objects[oi])
			oi++
		case opTask:
			rt.ReplayTask(pl.rp.Tasks[ti])
			ti++
		case opSerial:
			d := &g.serials[si]
			si++
			rt.ReplaySerial(d.work, pl.accs[d.acc0:d.accN:d.accN])
		case opWait:
			rt.Wait()
		case opReset:
			rt.ResetMetrics()
		}
	}
	return rt.Finish(), nil
}
