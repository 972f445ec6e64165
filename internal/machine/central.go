package machine

import (
	"fmt"

	"repro/internal/jade"
	"repro/internal/obsv"
	"repro/internal/sim"
)

// Model is what a centrally scheduled machine adds to the kit: its
// scheduling policy, its message and compute costs, its fetch protocol
// and its write policy. Central calls it at each step of the life
// cycle.
type Model interface {
	// Schedule is the admission decision for an enabled task: it sets
	// ts.Target and returns the processor to assign ts to, or -1 to pool
	// it.
	Schedule(ts *TaskState) int
	// PickPooled returns the index in Pool of the task to hand to
	// processor p, which has headroom, or -1 to leave p short.
	PickPooled(p int) int
	// Link prices one message of bytes from processor from to
	// processor to on a healthy machine; the kit's transport submits,
	// degrades, loses and folds it (Transmit, RoundTrip).
	Link(from, to, bytes int) Leg
	// Arrive runs when ts reaches processor ts.Proc in a run with work.
	// It fetches what the task reads (Gather each miss, StartFetch,
	// then Fetched as each message lands) or, if nothing is missing,
	// calls Ready.
	Arrive(ts *TaskState)
	// CPUTime is how long processor p takes for w seconds of
	// reference-processor work.
	CPUTime(p int, w float64) float64
	// Release publishes the writes a staged task releases at a segment
	// boundary and enables their waiters (Runtime.ReleaseEarly).
	Release(ts *TaskState, objs []*jade.Object)
	// Complete publishes the finished task's remaining writes.
	Complete(ts *TaskState)
}

// Params are a centrally scheduled machine's task-management prices
// and limits.
type Params struct {
	// CreateSec, AssignSec and CompleteSec are main-processor time to
	// create a task, to decide and send an assignment, and to handle a
	// completion notice; DispatchSec is the executing processor's time
	// to start a task.
	CreateSec, AssignSec, CompleteSec, DispatchSec float64
	// TaskMsgBytes and CompletionBytes size the assignment message and
	// the completion notice.
	TaskMsgBytes, CompletionBytes int
	// TargetTasks is how many assigned tasks a processor holds before
	// the scheduler pools the rest.
	TargetTasks int
	// FetchStall makes the fold sum each task's fetch stall into
	// Metrics.TaskLatency and each object's fetch latency into
	// Metrics.ObjectLatency (§5.5).
	FetchStall bool
	// HeaderBytes is the wire header of a one-sided message: one that
	// carries n operations saves n−1 of them (Metrics.AggBenefitBytes).
	HeaderBytes int
}

// TaskState is the scheduler's and communicator's bookkeeping for one
// task.
type TaskState struct {
	T *jade.Task
	// Target is the processor the scheduler prefers; Proc is the one
	// it assigned the task to (-1 while pooled).
	Target, Proc int

	idx    int32 // position in Central.states, for pointer-free events
	needed int   // fetch messages outstanding
	// firstReq and lastArrive bound the fetch stall (§5.5); start is
	// when execution starts on the CPU.
	firstReq, lastArrive, start sim.Time
}

// Msg is one kit-owned protocol message: a batch of object versions
// bound for one processor. Fetches, update pushes, broadcasts and
// write-backs all travel as Msgs, and their legs are registered
// handlers scheduled with the message's index as the int32 argument,
// so the timed path recycles records instead of allocating a closure
// and a batch per message.
type Msg struct {
	// TS is the task whose fetch sent the message, or nil for traffic
	// outside any task's fetch stall.
	TS *TaskState
	// Dest is the processor the batch was grouped by: the owner or home
	// its objects come from or go to.
	Dest int
	// Batch holds the accesses the message carries: for a fetch, the
	// versions the task requires; otherwise the versions delivered. A
	// recycled record keeps the slice's capacity.
	Batch []jade.Access
	// Issued is when the message left.
	Issued sim.Time
	// Next is the following message of the same Group, or -1; a serial
	// fetch issues each message once the previous one lands.
	Next int32
}

// gathered is an access queued for the next Group, with the
// destination it is grouped by.
type gathered struct {
	a    jade.Access
	dest int
}

// Central is Core plus the centralized scheduler on processor 0 and
// the task life cycle: assign → arrive → fetch → run (whole or staged)
// → complete → completion notice → load−− → pool drain.
type Central struct {
	Core
	// Load counts each processor's tasks assigned and not yet
	// completed.
	Load []int
	// Pool holds enabled tasks waiting for a processor with headroom.
	Pool []*TaskState

	model  Model
	par    Params
	arena  Arena[TaskState]
	states []*TaskState // by scheduling order
	// inflight is each processor's FIFO of tasks whose execution is
	// submitted on its CPU. A CPU's free time only moves forward and
	// equal-time events fire in scheduling order, so executions finish
	// in the order they were pushed, and one handler per processor
	// serves every completion.
	inflight []fifo

	// msgs is the message slab; freeMsgs lists its recycled records.
	// gather queues accesses for the next Group, and grouped holds
	// Group's result; both are reused from call to call.
	msgs     []Msg
	freeMsgs []int32
	gather   []gathered
	grouped  []int32

	// sends is the retransmit protocol's record slab, one record per
	// message in flight on a lossy machine; freeSends lists its
	// recycled records. retryH retransmits the record its argument
	// indexes.
	sends     []sendRec
	freeSends []int32

	arrivedH, execDoneH, notifyH, freedH, retryH sim.Handler
}

type fifo struct {
	idx  []int32
	head int
}

// Reset returns the kit to its freshly built state for procs
// processors priced by par, with model supplying the policies and
// costs, keeping the storage of the task states, the message records
// and their batches (see Core.Reset). model must be the same on every
// Reset: the first one registers the life cycle's handlers.
func (c *Central) Reset(procs int, par Params, model Model) {
	fresh := c.Eng == nil
	c.Core.Reset(procs, par.CreateSec)
	c.ledger.stall, c.ledger.header = par.FetchStall, par.HeaderBytes
	c.model, c.par = model, par
	c.Load = Resize(c.Load, procs)
	clear(c.Load)
	clear(c.Pool)
	c.Pool = c.Pool[:0]
	c.arena.Reset()
	clear(c.states)
	c.states = c.states[:0]
	c.inflight = Resize(c.inflight, procs)
	for i := range c.inflight {
		c.inflight[i] = fifo{idx: c.inflight[i].idx[:0]}
	}
	for i := range c.msgs {
		c.msgs[i].TS = nil
		clear(c.msgs[i].Batch)
	}
	c.msgs = c.msgs[:0]
	c.freeMsgs = c.freeMsgs[:0]
	clear(c.gather)
	c.gather = c.gather[:0]
	c.grouped = c.grouped[:0]
	c.sends, c.freeSends = c.sends[:0], c.freeSends[:0]
	if fresh {
		c.HandleEnabled(c.schedule)
		c.register()
	}
}

// register adds the life cycle's handlers to a new engine.
func (c *Central) register() {
	c.arrivedH = c.Eng.RegisterHandler(func(i int32) {
		ts := c.states[i]
		if ts.Proc != 0 {
			c.Arrived(c.par.TaskMsgBytes, 0)
		}
		// Work-free runs measure task management alone: tasks fetch
		// nothing.
		if c.RT.Config().WorkFree {
			c.Ready(ts)
		} else {
			c.model.Arrive(ts)
		}
	})
	c.execDoneH = c.Eng.RegisterHandler(func(v int32) { c.complete(c.popInflight(int(v))) })
	// A completion notice, a message unless processor 0 ran the task,
	// costs the main processor CompleteSec; then the processor's load
	// drops and the pool refills it.
	c.notifyH = c.Eng.RegisterHandler(func(v int32) {
		if v != 0 {
			c.Arrived(c.par.CompletionBytes, 0)
		}
		c.charged(c.par.CompleteSec)
		c.Eng.AtCall(c.submitMgmt(c.Eng.Now(), c.par.CompleteSec), c.freedH, v)
	})
	c.freedH = c.Eng.RegisterHandler(func(v int32) {
		p := int(v)
		c.Load[p]--
		c.drainPool(p)
	})
	c.retryH = c.Eng.RegisterHandler(func(i int32) { c.transmit(i, c.Eng.Now()) })
}

// ReserveCapacity implements the replay capacity hint.
func (c *Central) ReserveCapacity(objects, tasks int) {
	c.Core.ReserveCapacity(objects, tasks)
	c.arena.Reserve(tasks)
	c.states = Reserve(c.states, tasks)
}

// Drain implements jade.Platform, checking also that no task is left
// pooled or counted against a processor.
func (c *Central) Drain() {
	c.Core.Drain()
	if len(c.Pool) != 0 {
		panic(fmt.Sprintf("machine: engine emptied with %d tasks pooled", len(c.Pool)))
	}
	for p, l := range c.Load {
		if l != 0 {
			panic(fmt.Sprintf("machine: engine emptied with processor %d at load %d", p, l))
		}
	}
}

// schedule runs the admission decision on the main processor for one
// enabled task.
func (c *Central) schedule(t *jade.Task) {
	ts := c.arena.New()
	*ts = TaskState{T: t, Proc: -1, idx: int32(len(c.states))}
	c.states = append(c.states, ts)
	if p := c.model.Schedule(ts); p >= 0 {
		c.assign(ts, p)
		return
	}
	c.Pool = append(c.Pool, ts)
}

// assign charges the decision to the main CPU and sends the task to p.
func (c *Central) assign(ts *TaskState, p int) {
	ts.Proc = p
	c.Load[p]++
	c.charged(c.par.AssignSec)
	if c.Sink != nil {
		c.Sink.Record(obsv.Event{Kind: obsv.Assigned, Proc: p, Task: int(ts.T.ID), N: ts.Target, At: float64(c.Eng.Now())})
	}
	decided := c.submitMgmt(c.Eng.Now(), c.par.AssignSec)
	if p == 0 {
		c.Eng.AtCall(decided, c.arrivedH, ts.idx)
		return
	}
	c.Transmit(decided, 0, p, c.par.TaskMsgBytes, c.arrivedH, ts.idx)
}

// Gather queues access a, grouped by processor dest, for the next
// Group or StartFetch.
func (c *Central) Gather(a jade.Access, dest int) {
	c.gather = append(c.gather, gathered{a, dest})
}

// Group turns the gathered accesses into messages and returns their
// indices, linked through Next in the same order. With coalesce on
// there is one message per destination, and both the destinations and
// the accesses within each batch keep their first-appearance order, so
// the result is deterministic for a deterministic input order; off,
// every access is a message of its own. The returned slice is reused
// by the next call.
func (c *Central) Group(coalesce bool) []int32 {
	c.grouped = c.grouped[:0]
	for _, g := range c.gather {
		i := int32(-1)
		if coalesce {
			// Destination counts are processor counts (tens), so a
			// linear scan over the open batches is cheapest.
			for _, j := range c.grouped {
				if c.msgs[j].Dest == g.dest {
					i = j
					break
				}
			}
		}
		if i < 0 {
			i = c.NewMsg(g.dest)
			if n := len(c.grouped); n > 0 {
				c.msgs[c.grouped[n-1]].Next = i
			}
			c.grouped = append(c.grouped, i)
		}
		c.msgs[i].Batch = append(c.msgs[i].Batch, g.a)
	}
	c.gather = c.gather[:0]
	return c.grouped
}

// NewMsg returns the index of a message carrying batch to dest,
// reusing a recycled record when there is one.
func (c *Central) NewMsg(dest int, batch ...jade.Access) int32 {
	var i int32
	switch n := len(c.freeMsgs); {
	case n > 0:
		i = c.freeMsgs[n-1]
		c.freeMsgs = c.freeMsgs[:n-1]
	case len(c.msgs) < cap(c.msgs):
		// A record left from before a Reset: reuse its batch storage.
		c.msgs = c.msgs[:len(c.msgs)+1]
		i = int32(len(c.msgs) - 1)
	default:
		c.msgs = append(c.msgs, Msg{})
		i = int32(len(c.msgs) - 1)
	}
	m := &c.msgs[i]
	m.TS, m.Dest, m.Batch, m.Issued, m.Next = nil, dest, append(m.Batch[:0], batch...), 0, -1
	return i
}

// Msg returns message i. The pointer is valid until the next Group or
// NewMsg, which may move the slab.
func (c *Central) Msg(i int32) *Msg { return &c.msgs[i] }

// FreeMsg recycles message i once its last leg has landed.
func (c *Central) FreeMsg(i int32) {
	c.msgs[i].TS = nil
	c.freeMsgs = append(c.freeMsgs, i)
}

// StartFetch groups the reads of ts gathered as misses into fetch
// messages, one per destination when coalesce is on, and opens the
// task's fetch stall. The caller sends the messages (Group's slice)
// and calls Fetched as each lands. With nothing gathered it returns an
// empty slice and leaves ts alone.
func (c *Central) StartFetch(ts *TaskState, coalesce bool) []int32 {
	reads := len(c.gather)
	if reads == 0 {
		return nil
	}
	msgs := c.Group(coalesce)
	for _, i := range msgs {
		c.msgs[i].TS = ts
	}
	ts.needed = len(msgs)
	ts.firstReq = c.Eng.Now()
	if c.Sink != nil {
		c.Sink.Record(obsv.Event{Kind: obsv.FetchStart, Proc: ts.Proc, Task: int(ts.T.ID), N: reads, At: float64(ts.firstReq)})
	}
	return msgs
}

// Fetched records the arrival of fetch message i and recycles it; the
// task's last message ends the stall and readies the task.
func (c *Central) Fetched(i int32) {
	ts := c.msgs[i].TS
	c.FreeMsg(i)
	if now := c.Eng.Now(); now > ts.lastArrive {
		ts.lastArrive = now
	}
	ts.needed--
	if ts.needed > 0 {
		return
	}
	c.stalled(float64(ts.firstReq), float64(ts.lastArrive))
	if c.Sink != nil {
		c.Sink.Record(obsv.Event{Kind: obsv.FetchEnd, Proc: ts.Proc, Task: int(ts.T.ID),
			At: float64(ts.firstReq), End: float64(ts.lastArrive)})
	}
	c.Ready(ts)
}

// Ready executes ts on its processor: dispatch overhead plus the
// model's compute time, none in a work-free run. The body runs at the
// execution start; the writes and the completion notice follow at its
// end.
func (c *Central) Ready(ts *TaskState) {
	p, t := ts.Proc, ts.T
	var work float64
	if !c.RT.Config().WorkFree {
		work = c.model.CPUTime(p, t.Work)
	}
	c.Dispatched(p, int(t.ID), ts.Target, false, c.par.DispatchSec, work)
	if c.staged(t) {
		c.runSegment(ts, 0)
		return
	}
	c.RT.RunBody(t)
	q := &c.inflight[p]
	q.idx = append(q.idx, ts.idx)
	ts.start = c.CPUs[p].Start(c.Eng.Now())
	c.CPUs[p].SubmitCall(c.Eng.Now(), sim.Time(c.par.DispatchSec+work), c.execDoneH, int32(p))
}

// staged reports whether t runs segment by segment; work-free runs
// execute staged tasks whole.
func (c *Central) staged(t *jade.Task) bool {
	return len(t.Segments) > 0 && !c.RT.Config().WorkFree
}

// popInflight pops the next finished task from p's execution FIFO.
func (c *Central) popInflight(p int) *TaskState {
	q := &c.inflight[p]
	ts := c.states[q.idx[q.head]]
	q.head++
	if q.head == len(q.idx) {
		q.idx, q.head = q.idx[:0], 0
	}
	return ts
}

// runSegment runs segment i of a staged task; each boundary publishes
// the segment's releases before the next segment starts.
func (c *Central) runSegment(ts *TaskState, i int) {
	p, t := ts.Proc, ts.T
	c.RT.RunSegmentBody(t, i)
	d := c.model.CPUTime(p, t.Segments[i].Work)
	if i == 0 {
		d += c.par.DispatchSec
	}
	c.CPUs[p].Submit(c.Eng.Now(), sim.Time(d), func(start, end sim.Time) {
		c.SegmentRan(p, int(t.ID), start, end)
		c.model.Release(ts, t.Segments[i].Release)
		if i+1 < len(t.Segments) {
			c.runSegment(ts, i+1)
			return
		}
		c.complete(ts)
	})
}

// ReleasedEarly reports whether ts already released o at one of its
// segment boundaries.
func (c *Central) ReleasedEarly(ts *TaskState, o *jade.Object) bool {
	if !c.staged(ts.T) {
		return false
	}
	for _, s := range ts.T.Segments {
		for _, r := range s.Release {
			if r == o {
				return true
			}
		}
	}
	return false
}

// complete ends the task, publishes its writes, completes it in the
// runtime and sends the completion notice to the main processor.
func (c *Central) complete(ts *TaskState) {
	c.Finished(ts.Proc, int(ts.T.ID), ts.start, c.staged(ts.T))
	c.model.Complete(ts)
	c.RT.TaskDone(ts.T)
	if p := ts.Proc; p != 0 {
		c.Transmit(c.Eng.Now(), p, 0, c.par.CompletionBytes, c.notifyH, int32(p))
		return
	}
	c.Eng.Invoke(c.notifyH, 0)
}

// drainPool hands pooled tasks to processor p while it has headroom,
// in the order the model picks them.
func (c *Central) drainPool(p int) {
	for c.Load[p] < c.par.TargetTasks && len(c.Pool) > 0 {
		i := c.model.PickPooled(p)
		if i < 0 {
			return
		}
		ts := c.Pool[i]
		c.Pool = append(c.Pool[:i], c.Pool[i+1:]...)
		c.assign(ts, p)
	}
}
