// Package machine is the kit every simulated machine embeds: the half
// of jade.Platform that does not depend on how the machine moves data
// or picks processors.
//
// Core serves all four machines. It owns the event engine, the
// attached runtime, one CPU per processor (processor 0 runs the main
// program and the task-management work), the dense task table and the
// measurements. Central adds the centralized scheduler of the
// message-passing implementation (§3.4.3), which the ipsc, pgas and
// cluster machines share: per-processor load, the pool of tasks waiting
// for headroom, one task life cycle from assignment through the fetch
// stall, execution and the completion notice, and one message
// transport. A machine package keeps only its cost model and policies;
// Central reaches them through the Model interface.
package machine

import (
	"repro/internal/fault"
	"repro/internal/jade"
	"repro/internal/metrics"
	"repro/internal/obsv"
	"repro/internal/sim"
)

// Core is the machine-independent front half of jade.Platform. A
// machine embeds it, calls Reset from its own Reset and supplies
// ObjectAllocated, SerialWork and MainTouches itself.
type Core struct {
	Eng *sim.Engine
	RT  *jade.Runtime
	// CPUs holds one processor per node; CPUs[0] runs the main program
	// and charges the task-management work.
	CPUs []sim.Processor
	// Tasks is the dense task table, indexed by task ID (creation
	// order), so scheduling events carry task IDs instead of pointers.
	Tasks []*jade.Task
	// Metrics is the fold of what the machine describes (ledger.go),
	// with ExecTime and ProcBusy read from the CPUs by Stats.
	Metrics metrics.Run
	// Sink, when non-nil, receives the run's simulated-event stream
	// (obsv.Observer, trace.Trace) from the kit; nil costs nothing.
	Sink obsv.Sink
	// Inj, when non-nil, injects the deterministic faults the machine
	// models (fault.Spec); nil leaves every path healthy.
	Inj *fault.Injector

	// ledger holds the conservation tallies Drain checks and the
	// machine's parameters the fold reads.
	ledger ledger

	createSec   float64
	createdDone []sim.Time // indexed like Tasks
	enabledH    sim.Handler

	execBase sim.Time
	busyBase []float64
}

// Reset returns the core to its freshly built state with procs CPUs:
// an empty engine at time zero, no runtime, sink, injector or tasks,
// and zeroed measurements. Storage is kept, so a machine that replays
// one run after another stops allocating once its slices reach the
// largest run's size. Creating a task costs createSec of main-processor time.
// The first Reset of a zero Core builds the engine, and the machine
// then names its enable callback once with HandleEnabled; later Resets
// keep the handler registry.
func (c *Core) Reset(procs int, createSec float64) {
	if c.Eng == nil {
		c.Eng = sim.New()
	} else {
		c.Eng.Reset()
	}
	c.CPUs = Resize(c.CPUs, procs)
	for i := range c.CPUs {
		c.CPUs[i] = sim.MakeProcessor(c.Eng)
	}
	c.RT, c.Sink, c.Inj = nil, nil, nil
	clear(c.Tasks)
	c.Tasks = c.Tasks[:0]
	c.Metrics = metrics.Run{Procs: procs, ProcBusy: c.Metrics.ProcBusy[:0]}
	c.ledger.reset()
	c.createSec = createSec
	c.createdDone = c.createdDone[:0]
	c.execBase = 0
	c.busyBase = c.busyBase[:0]
}

// HandleEnabled registers enable, which receives each task once it is
// both created and enabled. A machine calls it once, after the Reset
// that built its engine: passing a method value on every Reset would
// allocate it every time.
func (c *Core) HandleEnabled(enable func(*jade.Task)) {
	c.enabledH = c.Eng.RegisterHandler(func(tid int32) { enable(c.Tasks[tid]) })
}

// Attach implements jade.Platform.
func (c *Core) Attach(rt *jade.Runtime) { c.RT = rt }

// Attached reports whether a runtime has been bound to the machine
// since it was built or last reset; graph replay uses it to refuse
// platforms that already ran.
func (c *Core) Attached() bool { return c.RT != nil }

// Processors implements jade.Platform.
func (c *Core) Processors() int { return len(c.CPUs) }

// ReserveCapacity implements the replay capacity hint for the task
// table; machines with dense per-object state size it too. It runs
// before the first object or task, and keeps storage that is already
// large enough.
func (c *Core) ReserveCapacity(objects, tasks int) {
	c.Tasks = Reserve(c.Tasks, tasks)
	c.createdDone = Reserve(c.createdDone, tasks)
	c.ledger.ran = Reserve(c.ledger.ran, tasks)
}

// submitMgmt occupies the main CPU with d seconds of task-management
// work, which a sink sees as a Mgmt span (no closure without a sink).
// The caller folds the charge.
func (c *Core) submitMgmt(at sim.Time, d float64) sim.Time {
	var span func(start, end sim.Time)
	if c.Sink != nil {
		span = func(start, end sim.Time) {
			c.Sink.Record(obsv.Event{Kind: obsv.Mgmt, At: float64(start), End: float64(end)})
		}
	}
	return c.CPUs[0].Submit(at, sim.Time(d), span)
}

// TaskCreated implements jade.Platform: charge creation to the main
// processor; an enabled task reaches the machine when creation ends.
func (c *Core) TaskCreated(t *jade.Task, enabled bool) {
	done := c.submitMgmt(c.Eng.Now(), c.createSec)
	c.Tasks = append(c.Tasks, t)
	c.createdDone = append(c.createdDone, done)
	c.created()
	if c.Sink != nil {
		c.Sink.Record(obsv.Event{Kind: obsv.Created, Task: int(t.ID), At: float64(done)})
	}
	if enabled {
		c.Eng.AtCall(done, c.enabledH, int32(t.ID))
	}
}

// TaskEnabled implements jade.Platform: a dependence was satisfied;
// the task reaches the machine once its creation has also finished.
func (c *Core) TaskEnabled(t *jade.Task) {
	at := c.Eng.Now()
	if cd := c.createdDone[t.ID]; cd > at {
		at = cd
	}
	c.Eng.AtCall(at, c.enabledH, int32(t.ID))
}

// Drain implements jade.Platform: run the engine until it empties,
// bring the main processor up to the final time, and check the
// conservation laws (ledger.check).
func (c *Core) Drain() {
	c.CPUs[0].Advance(c.Eng.Run())
	c.ledger.check(c.Stats())
}

// Stats implements jade.Platform.
func (c *Core) Stats() *metrics.Run {
	c.Metrics.ExecTime = float64(c.CPUs[0].FreeAt() - c.execBase)
	// Sized once: a caller that keeps the run takes the slice with it
	// (experiments hands it over), and the next run makes one at length.
	busy := c.Metrics.ProcBusy
	if cap(busy) < len(c.CPUs) {
		busy = make([]float64, len(c.CPUs))
	}
	busy = busy[:len(c.CPUs)]
	for i := range c.CPUs {
		busy[i] = float64(c.CPUs[i].BusyTime())
		if i < len(c.busyBase) {
			busy[i] -= c.busyBase[i]
		}
	}
	c.Metrics.ProcBusy = busy
	return &c.Metrics
}

// ResetStats implements jade.Platform: the fold's measurements and the
// CPUs' time restart.
func (c *Core) ResetStats() {
	c.Metrics = metrics.Run{Procs: len(c.CPUs), ProcBusy: c.Metrics.ProcBusy[:0]}
	c.execBase = c.CPUs[0].FreeAt()
	c.busyBase = c.busyBase[:0]
	for i := range c.CPUs {
		c.busyBase = append(c.busyBase, float64(c.CPUs[i].BusyTime()))
	}
	if c.Sink != nil {
		c.Sink.Record(obsv.Event{Kind: obsv.Reset})
	}
}

// Arena hands out pointers to T values that stay valid for its life:
// values live in chunks that never grow, so no pointer ever moves.
type Arena[T any] struct{ chunk []T }

// Reserve makes room for n more values in the current chunk, starting
// a new chunk only when the current one has less room left.
func (a *Arena[T]) Reserve(n int) {
	if cap(a.chunk)-len(a.chunk) < n {
		a.chunk = make([]T, 0, n)
	}
}

// Reset forgets every value handed out, keeping the current chunk for
// reuse; pointers from before the reset must no longer be used.
func (a *Arena[T]) Reset() {
	clear(a.chunk)
	a.chunk = a.chunk[:0]
}

// New returns a pointer to a zero T.
func (a *Arena[T]) New() *T {
	if len(a.chunk) == cap(a.chunk) {
		// Double from a small start, so short runs allocate little while
		// long runs quickly reach a cheap steady state.
		a.chunk = make([]T, 0, min(max(2*cap(a.chunk), 32), 1024))
	}
	a.chunk = a.chunk[:len(a.chunk)+1]
	return &a.chunk[len(a.chunk)-1]
}

// Reserve returns s emptied with room for n elements: s itself when
// its capacity suffices, otherwise a new slice.
func Reserve[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:0]
	}
	return make([]T, 0, n)
}

// Resize returns s with length n, keeping its elements (and the
// storage they own) up to n; elements past the old capacity are zero.
// The caller resets every element it keeps.
func Resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}
