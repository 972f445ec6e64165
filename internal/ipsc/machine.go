package ipsc

import (
	"math/bits"

	"repro/internal/fault"
	"repro/internal/fuse"
	"repro/internal/jade"
	"repro/internal/metrics"
	"repro/internal/obsv"
	"repro/internal/sim"
)

// node is one hypercube node: a CPU that executes tasks (and, on node
// 0, the main program and the centralized scheduler) and a NIC that
// serializes outgoing messages. Interrupt-driven protocol work (object
// replies) costs NIC time but does not occupy the CPU, matching the
// NX/2 handler model.
type node struct {
	cpu sim.Processor
	nic sim.Processor
	// store holds, per object ID, the version this node has a copy of,
	// or -1 for none. Object IDs are dense, so a slice indexed by ID
	// replaces the former map on this hot path.
	store []jade.Version
	// load is the number of tasks assigned and not yet completed
	// (maintained by the scheduler on node 0).
	load int
	// inflight is the FIFO of tasks whose execution is submitted on
	// cpu. The resource's free time only moves forward, and equal-time
	// events fire in scheduling order, so completions pop in exactly
	// the order executions were pushed — which lets the completion
	// handler be interned per node instead of allocated per task.
	inflight     []*taskState
	inflightHead int
}

// taskState is the scheduler/communicator bookkeeping for one task.
type taskState struct {
	t      *jade.Task
	idx    int32 // position in Machine.tsList, for pointer-free events
	target int   // owner of the locality object at scheduling time
	proc   int   // node it was assigned to
	// needed counts outstanding object fetches.
	needed int
	// start is when the task's execution starts on its node's CPU.
	start sim.Time
	// fetch latency accounting (§5.5).
	firstReq   sim.Time
	lastArrive sim.Time
	reqCount   int
	// releasedEarly records objects whose writes were already
	// produced at a segment boundary, so completion skips them.
	releasedEarly map[jade.ObjectID]bool
}

// procSet is a bitmask set of processor IDs. New caps Procs at 64 so
// one word always suffices; producing a version resets the set with a
// copy instead of a fresh map allocation (the old per-produce map was
// the dominant allocation in work-free sweeps).
type procSet uint64

func oneProc(p int) procSet      { return procSet(1) << uint(p) }
func (s procSet) has(p int) bool { return s&oneProc(p) != 0 }
func (s *procSet) add(p int)     { *s |= oneProc(p) }
func (s procSet) count() int     { return bits.OnesCount64(uint64(s)) }

// objState tracks ownership, the access set for adaptive-broadcast
// detection, and broadcast mode for one object.
type objState struct {
	owner      int
	version    jade.Version
	accessedBy procSet
	broadcast  bool
}

// Machine is the iPSC/860-style message-passing platform implementing
// jade.Platform.
type Machine struct {
	cfg Config
	eng *sim.Engine
	rt  *jade.Runtime

	nodes []*node
	// objs is indexed by object ID (dense, allocation order).
	objs []*objState

	// pool holds enabled tasks awaiting assignment because every
	// processor is at its target load (§3.4.3).
	pool []*taskState

	// tasks is the dense task table, indexed by task ID (creation
	// order); createdDone is indexed the same way. Scheduling events
	// carry task IDs instead of pointers and resolve them here.
	tasks       []*jade.Task
	createdDone []sim.Time
	fcfsNext    int // rotating pointer for NoLocality FCFS
	// tsSlab is a chunked arena for taskState values (one per task;
	// pointers into a chunk stay stable because chunks never grow).
	// tsList indexes them in scheduling order so communication events
	// can carry a taskState's position instead of its pointer.
	tsSlab []taskState
	tsList []*taskState

	// notifyH handles a completion message arriving at the main node
	// from processor arg: it charges the handler cost and schedules
	// the load decrement on the main CPU. completeDoneCallH and
	// execDoneCallH are its continuations with the same
	// processor-index argument; scheduleH (task ID) and taskArrivedH
	// (tsList index) are the registered handlers for scheduler entry
	// and local task arrival. All are registered once per machine, so
	// every hot-path event stays pointer-free.
	notifyH           sim.Handler
	completeDoneCallH sim.Handler
	execDoneCallH     sim.Handler
	scheduleH         sim.Handler
	taskArrivedH      sim.Handler
	// osSlab is a chunked arena for objState values (one per object;
	// pointers into a chunk stay stable because chunks never grow).
	osSlab []objState

	// Sink, when non-nil, receives the run's simulated-event stream
	// (obsv.Observer, trace.Trace); nil costs nothing.
	Sink obsv.Sink
	// Inj, when non-nil, injects deterministic faults: message drops
	// recovered by the retransmit protocol, in-flight duplicates,
	// per-link bandwidth degradation, and straggling processors. A nil
	// injector leaves every code path byte-identical to the healthy
	// machine.
	Inj *fault.Injector

	stats    metrics.Run
	execBase sim.Time
	busyBase []float64
}

var _ jade.Platform = (*Machine)(nil)

// New builds an iPSC machine from cfg.
func New(cfg Config) *Machine {
	if cfg.Procs < 1 {
		panic("ipsc: need at least one processor")
	}
	if cfg.Procs > 64 {
		panic("ipsc: at most 64 processors (procSet is one word)")
	}
	if cfg.TargetTasks < 1 {
		cfg.TargetTasks = 1
	}
	m := &Machine{
		cfg: cfg,
		eng: sim.New(),
	}
	m.scheduleH = m.eng.RegisterHandler(func(tid int32) { m.schedule(m.tasks[tid]) })
	m.taskArrivedH = m.eng.RegisterHandler(func(i int32) { m.taskArrived(m.tsList[i]) })
	m.completeDoneCallH = m.eng.RegisterHandler(func(v int32) {
		p := int(v)
		m.nodes[p].load--
		m.drainPool(p)
	})
	m.execDoneCallH = m.eng.RegisterHandler(func(v int32) {
		ts := m.popInflight(int(v))
		obsv.Emit(m.Sink, obsv.Event{Kind: obsv.Exec, Proc: int(v), Task: int(ts.t.ID), At: float64(ts.start), End: float64(m.eng.Now())})
		m.completed(ts)
	})
	m.notifyH = m.eng.RegisterHandler(func(v int32) {
		m.stats.TaskMgmtTime += m.cfg.CompleteHandleSec
		m.eng.AtCall(m.submitMgmt(m.eng.Now(), m.cfg.CompleteHandleSec), m.completeDoneCallH, v)
	})
	nslab := make([]node, cfg.Procs)
	for i := 0; i < cfg.Procs; i++ {
		nslab[i].cpu = sim.MakeProcessor(m.eng)
		nslab[i].nic = sim.MakeProcessor(m.eng)
		m.nodes = append(m.nodes, &nslab[i])
	}
	m.stats.Procs = cfg.Procs
	return m
}

// popInflight pops the next completed task from node p's execution
// FIFO (resetting the backing array when it drains).
func (m *Machine) popInflight(p int) *taskState {
	n := m.nodes[p]
	ts := n.inflight[n.inflightHead]
	n.inflightHead++
	if n.inflightHead == len(n.inflight) {
		n.inflight = n.inflight[:0]
		n.inflightHead = 0
	}
	return ts
}

// Attach implements jade.Platform.
func (m *Machine) Attach(rt *jade.Runtime) { m.rt = rt }

// ReserveCapacity implements the replay capacity hint: size the dense
// per-object and per-task structures for the counts the plan already
// knows, so the run appends without ever growing them.
func (m *Machine) ReserveCapacity(objects, tasks int) {
	m.objs = make([]*objState, 0, objects)
	m.osSlab = make([]objState, 0, objects)
	m.tsSlab = make([]taskState, 0, tasks)
	m.tsList = make([]*taskState, 0, tasks)
	m.tasks = make([]*jade.Task, 0, tasks)
	m.createdDone = make([]sim.Time, 0, tasks)
	// One backing array for every node's store: each node appends
	// within its own fixed-capacity window.
	flat := make([]jade.Version, 0, objects*len(m.nodes))
	for i, n := range m.nodes {
		n.store = flat[i*objects : i*objects : (i+1)*objects]
	}
}

// Attached reports whether a runtime has ever been bound to the
// machine; graph replay uses it to refuse reused platforms.
func (m *Machine) Attached() bool { return m.rt != nil }

// Processors implements jade.Platform.
func (m *Machine) Processors() int { return m.cfg.Procs }

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// ObjectAllocated implements jade.Platform. On a message-passing
// machine the main program initializes every object, so node 0 owns
// the initial version regardless of the placement hint (this is what
// costs Panel Cholesky its first-touch locality on the iPSC, Figure
// 15).
func (m *Machine) ObjectAllocated(o *jade.Object) {
	if len(m.osSlab) == cap(m.osSlab) {
		m.osSlab = make([]objState, 0, nextChunk(cap(m.osSlab)))
	}
	m.osSlab = m.osSlab[:len(m.osSlab)+1]
	st := &m.osSlab[len(m.osSlab)-1]
	*st = objState{owner: 0, version: 0, accessedBy: oneProc(0)}
	m.objs = append(m.objs, st)
	for _, n := range m.nodes {
		n.store = append(n.store, -1)
	}
	m.nodes[0].store[o.ID] = 0
}

// submitMgmt charges d seconds of task-management work to node 0's
// CPU and emits it as a Mgmt span.
func (m *Machine) submitMgmt(at sim.Time, d float64) sim.Time {
	return m.nodes[0].cpu.Submit(at, sim.Time(d), obsv.Span(m.Sink, obsv.Event{Kind: obsv.Mgmt}))
}

// TaskCreated implements jade.Platform.
func (m *Machine) TaskCreated(t *jade.Task, enabled bool) {
	done := m.submitMgmt(m.eng.Now(), m.cfg.TaskCreateSec)
	m.stats.TaskMgmtTime += m.cfg.TaskCreateSec
	m.tasks = append(m.tasks, t)
	m.createdDone = append(m.createdDone, done)
	obsv.Emit(m.Sink, obsv.Event{Kind: obsv.Created, Task: int(t.ID), At: float64(done)})
	if enabled {
		m.eng.AtCall(done, m.scheduleH, int32(t.ID))
	}
}

// TaskEnabled implements jade.Platform.
func (m *Machine) TaskEnabled(t *jade.Task) {
	at := m.eng.Now()
	if cd := m.createdDone[t.ID]; cd > at {
		at = cd
	}
	m.eng.AtCall(at, m.scheduleH, int32(t.ID))
}

// SerialWork implements jade.Platform. Serial phases run on node 0,
// so a straggling main processor stretches them too.
func (m *Machine) SerialWork(d float64) {
	m.nodes[0].cpu.Submit(m.eng.Now(), sim.Time(d*m.cfg.SpeedFactor*m.cpuFactor(0)), nil)
}

// Drain implements jade.Platform.
func (m *Machine) Drain() {
	end := m.eng.Run()
	m.nodes[0].cpu.Advance(end)
}

// Stats implements jade.Platform.
func (m *Machine) Stats() *metrics.Run {
	m.stats.ExecTime = float64(m.nodes[0].cpu.FreeAt() - m.execBase)
	m.stats.ProcBusy = m.stats.ProcBusy[:0]
	for i, n := range m.nodes {
		b := float64(n.cpu.BusyTime())
		if i < len(m.busyBase) {
			b -= m.busyBase[i]
		}
		m.stats.ProcBusy = append(m.stats.ProcBusy, b)
	}
	return &m.stats
}

// ResetStats implements jade.Platform.
func (m *Machine) ResetStats() {
	m.stats = metrics.Run{Procs: m.cfg.Procs}
	m.execBase = m.nodes[0].cpu.FreeAt()
	m.busyBase = m.busyBase[:0]
	for _, n := range m.nodes {
		m.busyBase = append(m.busyBase, float64(n.cpu.BusyTime()))
	}
	obsv.Emit(m.Sink, obsv.Event{Kind: obsv.Reset})
}

// maxSendAttempts bounds the retransmit protocol: after this many
// lost transmissions the delivery is forced — injected links are
// lossy, not dead, and the simulation must terminate at any drop rate.
const maxSendAttempts = 12

// send models one point-to-point protocol message from -> to with the
// given payload: NIC occupancy on the sender (starting no earlier than
// at), wire latency, then deliver at the receiver. With a fault
// injector attached the transmission may be dropped — the sender
// detects the loss by a timeout derived from the cost model (data
// occupancy + round-trip wire latency + the ack push) and retransmits
// with exponential backoff and deterministic jitter — or duplicated in
// flight, in which case the receiver discards the extra copy but the
// sender NIC still pays for it. Without an injector the path is
// byte-identical to the direct Submit/At sequence it replaced.
func (m *Machine) send(at sim.Time, from, to, bytes int, deliver func()) {
	occ := sim.Time(m.cfg.sendOccupancy(bytes))
	lat := sim.Time(m.cfg.msgLatency(from, to))
	if m.Inj == nil {
		sent := m.nodes[from].nic.Submit(at, occ, nil)
		m.eng.At(sent+lat, deliver)
		return
	}
	occ = sim.Time(float64(occ) * m.Inj.LinkFactor(from, to))
	msg := m.Inj.NextMsg(from)
	// Per-message retransmit timeout from the paper's cost model: the
	// data push, the wire both ways, and the receiver's ack push.
	rto := occ + 2*lat + sim.Time(m.cfg.sendOccupancy(m.cfg.CompletionBytes))
	var try func(start sim.Time, attempt int)
	try = func(start sim.Time, attempt int) {
		sent := m.nodes[from].nic.Submit(start, occ, nil)
		if m.Inj.Drop(from, msg, attempt) && attempt < maxSendAttempts-1 {
			m.stats.MsgDropped++
			m.stats.MsgRetransmits++
			// Exponential backoff with deterministic jitter in [1, 2).
			backoff := sim.Time(float64(rto) * float64(uint64(1)<<uint(attempt)) *
				(1 + m.Inj.Jitter(from, msg, attempt)))
			m.eng.At(sent+backoff, func() { try(m.eng.Now(), attempt+1) })
			return
		}
		if m.Inj.Duplicate(from, msg) {
			m.stats.MsgDuplicates++
			m.nodes[from].nic.Submit(sent, occ, nil)
		}
		obsv.Emit(m.Sink, obsv.Event{Kind: obsv.Delivery, N: attempt + 1})
		m.eng.At(sent+lat, deliver)
	}
	try(at, 0)
}

// sendCall is the closure-free variant of send for registered
// handlers: on the healthy path the delivery is scheduled as a
// pointer-free h(arg) event. With an injector attached the retransmit
// protocol needs its own closures anyway, so it delegates to send.
func (m *Machine) sendCall(at sim.Time, from, to, bytes int, h sim.Handler, arg int32) {
	if m.Inj == nil {
		occ := sim.Time(m.cfg.sendOccupancy(bytes))
		lat := sim.Time(m.cfg.msgLatency(from, to))
		sent := m.nodes[from].nic.Submit(at, occ, nil)
		m.eng.AtCall(sent+lat, h, arg)
		return
	}
	m.send(at, from, to, bytes, func() { m.eng.Invoke(h, arg) })
}

// cpuFactor is the straggler slowdown for processor p (1 when no
// injector is attached or p is healthy).
func (m *Machine) cpuFactor(p int) float64 {
	return m.Inj.CPUFactor(p)
}

// schedule runs the centralized scheduling decision on the main
// processor for one enabled task (§3.4.3).
func (m *Machine) schedule(t *jade.Task) {
	if len(m.tsSlab) == cap(m.tsSlab) {
		m.tsSlab = make([]taskState, 0, nextChunk(cap(m.tsSlab)))
	}
	m.tsSlab = m.tsSlab[:len(m.tsSlab)+1]
	ts := &m.tsSlab[len(m.tsSlab)-1]
	*ts = taskState{t: t, idx: int32(len(m.tsList)), target: m.targetOf(t), proc: -1}
	m.tsList = append(m.tsList, ts)
	var p int
	switch {
	case m.cfg.Level == TaskPlacement && t.Placed >= 0:
		// Explicit placement still respects the target load: the
		// scheduler only keeps each processor supplied with
		// TargetTasks tasks at a time (§3.4.3).
		p = t.Placed
		if m.nodes[p].load >= m.cfg.TargetTasks {
			p = -1
		}
	case m.cfg.Level == NoLocality:
		p = m.pickIdleFCFS()
	default:
		p = m.pickLeastLoaded(ts)
	}
	if p < 0 {
		m.pool = append(m.pool, ts)
		return
	}
	m.assign(ts, p)
}

// targetOf returns the owner of the task's locality object — the
// processor guaranteed to hold the latest version (§3.4.3).
func (m *Machine) targetOf(t *jade.Task) int {
	lobj := t.LocalityObject(m.rt.Config().Locality)
	if lobj == nil {
		return 0
	}
	return m.objs[lobj.ID].owner
}

// pickIdleFCFS implements the NoLocality single-queue policy: hand the
// task to an idle processor, rotating for fairness, or report none.
func (m *Machine) pickIdleFCFS() int {
	for i := 0; i < m.cfg.Procs; i++ {
		p := (m.fcfsNext + i) % m.cfg.Procs
		if m.nodes[p].load == 0 {
			m.fcfsNext = (p + 1) % m.cfg.Procs
			return p
		}
	}
	return -1
}

// pickLeastLoaded implements the §3.4.3 policy: if every processor has
// reached the target load, pool the task; otherwise assign to the
// target processor if it is among the least loaded, else to the
// lowest-numbered least-loaded processor. With StickyTarget (§5.6
// extension) the target also wins whenever it has any headroom.
func (m *Machine) pickLeastLoaded(ts *taskState) int {
	minLoad := m.nodes[0].load
	for _, n := range m.nodes[1:] {
		if n.load < minLoad {
			minLoad = n.load
		}
	}
	if minLoad >= m.cfg.TargetTasks {
		return -1
	}
	if m.nodes[ts.target].load == minLoad {
		return ts.target
	}
	if m.cfg.StickyTarget && m.nodes[ts.target].load < m.cfg.TargetTasks+1 {
		return ts.target
	}
	for p, n := range m.nodes {
		if n.load == minLoad {
			return p
		}
	}
	return -1
}

// assign charges the scheduling decision to the main CPU, sends the
// task message, and triggers the communicator on arrival.
func (m *Machine) assign(ts *taskState, p int) {
	ts.proc = p
	m.nodes[p].load++
	obsv.Emit(m.Sink, obsv.Event{Kind: obsv.Assigned, Proc: p, Task: int(ts.t.ID), N: ts.target, At: float64(m.eng.Now())})
	m.stats.TaskMgmtTime += m.cfg.AssignSec
	decided := m.submitMgmt(m.eng.Now(), m.cfg.AssignSec)
	if p == 0 {
		m.eng.AtCall(decided, m.taskArrivedH, ts.idx)
		return
	}
	m.sendCall(decided, 0, p, m.cfg.TaskMsgBytes, m.taskArrivedH, ts.idx)
}

// taskArrived runs in the receiving node's message handler: it
// immediately requests every remote object the task will access
// (§3.4.3), in parallel when ConcurrentFetch is on.
func (m *Machine) taskArrived(ts *taskState) {
	p := ts.proc
	var toFetch []jade.Access
	if !m.rt.Config().WorkFree {
		for _, a := range ts.t.Accesses {
			if !a.Reads() {
				continue
			}
			if m.nodes[p].store[a.Obj.ID] == a.RequiredVersion {
				m.noteAccess(a.Obj.ID, a.RequiredVersion, p)
				continue
			}
			toFetch = append(toFetch, a)
		}
	}
	if len(toFetch) == 0 {
		m.ready(ts)
		return
	}
	// With coalescing on, same-owner fetches share one request/reply
	// pair; off, every batch is a singleton and the path below is the
	// classic per-object protocol.
	batches := fuse.GroupByDest(toFetch, func(a jade.Access) int {
		return m.objs[a.Obj.ID].owner
	}, m.cfg.Coalescing)
	ts.needed = len(batches)
	ts.firstReq = m.eng.Now()
	obsv.Emit(m.Sink, obsv.Event{Kind: obsv.FetchStart, Proc: p, Task: int(ts.t.ID), N: len(toFetch), At: float64(ts.firstReq)})
	if m.cfg.ConcurrentFetch {
		for _, b := range batches {
			m.fetchBatch(ts, b, nil)
		}
	} else {
		// Serial fetch chain: issue each request only after the
		// previous object (batch) arrives.
		var next func(i int)
		next = func(i int) {
			m.fetchBatch(ts, batches[i], func() {
				if i+1 < len(batches) {
					next(i + 1)
				}
			})
		}
		next(0)
	}
}

// fetchBatch issues one request/reply pair for a batch of same-owner
// accesses; when the task's last batch arrives the task becomes ready.
// Every batch is a singleton unless coalescing grouped them, so the
// uncoalesced machine takes exactly the pre-coalescing path. A batch
// travels as one message: under fault injection a drop loses the whole
// batch and the retransmit protocol resends all of it (send retries
// the full payload).
func (m *Machine) fetchBatch(ts *taskState, batch []jade.Access, then func()) {
	p := ts.proc
	owner := m.objs[batch[0].Obj.ID].owner
	issued := m.eng.Now()
	ts.reqCount++
	size := 0
	for _, a := range batch {
		size += a.Obj.Size
	}

	// Request message: p → owner (one per batch).
	m.send(issued, p, owner, m.cfg.RequestBytes, func() {
		for _, a := range batch {
			m.noteAccess(a.Obj.ID, a.RequiredVersion, p)
		}
		// Reply: owner → p, carrying the batch's objects behind one
		// message header.
		m.send(m.eng.Now(), owner, p, size, func() {
			now := m.eng.Now()
			for _, a := range batch {
				o := a.Obj
				m.nodes[p].store[o.ID] = a.RequiredVersion
				m.stats.MsgBytes += int64(o.Size)
				if owner != p {
					m.stats.ReplicatedReads++
				}
				m.stats.ObjectLatency += float64(now - issued)
				obsv.Emit(m.Sink, obsv.Event{Kind: obsv.Fetch, Proc: p, Obj: int(o.ID), Name: o.Name, Bytes: o.Size,
					At: float64(issued), End: float64(now), Flag: owner != p})
			}
			m.stats.MsgCount++
			m.stats.MsgsCoalesced += int64(len(batch) - 1)
			if now > ts.lastArrive {
				ts.lastArrive = now
			}
			ts.needed--
			if then != nil {
				then()
			}
			if ts.needed == 0 {
				m.stats.TaskLatency += float64(ts.lastArrive - ts.firstReq)
				obsv.Emit(m.Sink, obsv.Event{Kind: obsv.FetchEnd, Proc: p, Task: int(ts.t.ID),
					At: float64(ts.firstReq), End: float64(ts.lastArrive)})
				m.ready(ts)
			}
		})
	})
}

// noteAccess records that processor p accessed the current version of
// the object, and flips the object into broadcast mode once every
// processor has accessed one version (§3.4.2).
func (m *Machine) noteAccess(id jade.ObjectID, v jade.Version, p int) {
	st := m.objs[id]
	if st.version != v {
		return // a stale access; only the current version's set counts
	}
	st.accessedBy.add(p)
	if m.cfg.AdaptiveBroadcast && !st.broadcast && st.accessedBy.count() == m.cfg.Procs {
		st.broadcast = true
	}
}

// ready executes the task on its node: dispatch overhead plus scaled
// compute. The body runs at the execution start; ownership updates and
// the completion protocol run at the completion time.
func (m *Machine) ready(ts *taskState) {
	p := ts.proc
	work := ts.t.Work * m.cfg.SpeedFactor * m.cpuFactor(p)
	m.stats.TaskMgmtTime += m.cfg.DispatchSec
	m.stats.TaskCount++
	if p == ts.target {
		m.stats.TasksOnTarget++
	}
	m.stats.TaskExecTotal += work

	if len(ts.t.Segments) > 0 && !m.rt.Config().WorkFree {
		m.readyStaged(ts)
		return
	}
	m.rt.RunBody(ts.t)
	n := m.nodes[p]
	n.inflight = append(n.inflight, ts)
	ts.start = n.cpu.Start(m.eng.Now())
	n.cpu.SubmitCall(m.eng.Now(), sim.Time(m.cfg.DispatchSec+work), m.execDoneCallH, int32(p))
}

// readyStaged executes a multi-synchronization-point task on its
// node: each segment boundary publishes released writes (the node
// becomes the owner of the new version immediately) and enables
// successors.
func (m *Machine) readyStaged(ts *taskState) {
	p := ts.proc
	segs := ts.t.Segments
	ts.releasedEarly = make(map[jade.ObjectID]bool)
	var run func(i int)
	run = func(i int) {
		m.rt.RunSegmentBody(ts.t, i)
		d := segs[i].Work * m.cfg.SpeedFactor * m.cpuFactor(p)
		if i == 0 {
			d += m.cfg.DispatchSec
		}
		m.nodes[p].cpu.Submit(m.eng.Now(), sim.Time(d), func(start, end sim.Time) {
			obsv.Emit(m.Sink, obsv.Event{Kind: obsv.Segment, Proc: p, Task: int(ts.t.ID), At: float64(start), End: float64(end)})
			for _, o := range segs[i].Release {
				if a, ok := ts.t.AccessOn(o); ok && a.Writes() {
					m.produce(o, a.RequiredVersion+1, p)
					ts.releasedEarly[o.ID] = true
				}
				for _, n := range m.rt.ReleaseEarly(ts.t, o) {
					m.TaskEnabled(n)
				}
			}
			if i+1 < len(segs) {
				run(i + 1)
				return
			}
			m.completed(ts)
		})
	}
	run(0)
}

// completed applies the task's writes to the ownership map, performs
// adaptive broadcasts of newly produced versions, notifies the main
// processor, and lets the scheduler hand out pooled work.
func (m *Machine) completed(ts *taskState) {
	p := ts.proc
	for _, a := range ts.t.Accesses {
		if !a.Writes() || ts.releasedEarly[a.Obj.ID] {
			continue
		}
		m.produce(a.Obj, a.RequiredVersion+1, p)
	}
	m.rt.TaskDone(ts.t)

	// Completion message p → main; the handler decrements the load
	// and assigns pooled tasks (preferring ones targeting p). Both the
	// delivery callback and the main-CPU handler are interned per
	// processor (they capture nothing task-specific).
	if p == 0 {
		m.eng.Invoke(m.notifyH, 0)
		return
	}
	m.sendCall(m.eng.Now(), p, 0, m.cfg.CompletionBytes, m.notifyH, int32(p))
}

// produce installs a new version of an object owned by processor p,
// resets the access set, and eagerly distributes the version when the
// object is in broadcast mode (or, with the EagerUpdate protocol, to
// the previous version's readers).
func (m *Machine) produce(o *jade.Object, v jade.Version, p int) {
	st := m.objs[o.ID]
	prevReaders := st.accessedBy
	st.owner = p
	st.version = v
	st.accessedBy = oneProc(p)
	m.nodes[p].store[o.ID] = v
	if m.rt.Config().WorkFree {
		return
	}
	if !st.broadcast {
		if m.cfg.EagerUpdate {
			m.eagerUpdate(o, v, p, prevReaders)
		}
		return
	}
	// Adaptive broadcast (§3.4.2): the producer initiates a
	// spanning-tree broadcast of the new version. Setup and the buffer
	// copy cost producer CPU; the tree transmissions occupy its NIC.
	m.stats.BroadcastCount++
	obsv.Emit(m.Sink, obsv.Event{Kind: obsv.Broadcast, Proc: p, Obj: int(o.ID), Name: o.Name, Bytes: o.Size,
		N: int(v), At: float64(m.eng.Now())})
	cpuDone := m.nodes[p].cpu.Submit(m.eng.Now(),
		sim.Time(m.cfg.BcastSetupSec+m.cfg.byteTime(o.Size)), nil)
	steps := m.cfg.bcastSteps()
	nicDone := m.nodes[p].nic.Submit(cpuDone,
		sim.Time(float64(steps)*m.cfg.sendOccupancy(o.Size)), nil)
	arrive := nicDone + sim.Time(m.cfg.MsgLatencySec)
	if m.cfg.Procs > 1 {
		m.stats.MsgBytes += int64(o.Size) * int64(m.cfg.Procs-1)
		m.stats.MsgCount += int64(m.cfg.Procs - 1)
	}
	m.eng.At(arrive, func() {
		if st.version != v {
			return // already superseded
		}
		for q := range m.nodes {
			m.nodes[q].store[o.ID] = v
		}
	})
}

// eagerUpdate implements the §6 update protocol: push the new version
// to every processor that accessed the previous one. Each push is a
// point-to-point send serialized on the producer's NIC; a consumer
// that never reads the version again makes the transfer pure waste,
// which is exactly how the protocol degrades irregular applications.
func (m *Machine) eagerUpdate(o *jade.Object, v jade.Version, p int, readers procSet) {
	st := m.objs[o.ID]
	// Deterministic order.
	for q := 0; q < m.cfg.Procs; q++ {
		if q == p || !readers.has(q) {
			continue
		}
		q := q
		m.stats.MsgBytes += int64(o.Size)
		m.stats.MsgCount++
		m.send(m.eng.Now(), p, q, o.Size, func() {
			if st.version != v {
				return // superseded in flight
			}
			m.nodes[q].store[o.ID] = v
		})
	}
}

// drainPool assigns pooled tasks to processor p while it has headroom,
// preferring tasks whose target is p (§3.4.3). Explicitly placed tasks
// only ever go to their placed processor.
func (m *Machine) drainPool(p int) {
	placedOnly := func(ts *taskState) bool {
		return m.cfg.Level == TaskPlacement && ts.t.Placed >= 0
	}
	for m.nodes[p].load < m.cfg.TargetTasks && len(m.pool) > 0 {
		pick := -1
		// First pass: tasks bound or targeted to p.
		for i, ts := range m.pool {
			if placedOnly(ts) {
				if ts.t.Placed == p {
					pick = i
					break
				}
				continue
			}
			if m.cfg.Level != NoLocality && ts.target == p {
				pick = i
				break
			}
		}
		// Second pass: any assignable task.
		if pick < 0 {
			for i, ts := range m.pool {
				if placedOnly(ts) && ts.t.Placed != p {
					continue
				}
				pick = i
				break
			}
		}
		if pick < 0 {
			return
		}
		ts := m.pool[pick]
		m.pool = append(m.pool[:pick], m.pool[pick+1:]...)
		m.assign(ts, p)
	}
}

// MainTouches implements jade.Platform: serial phases fetch the
// objects they read to node 0 (blocking the main program) and take
// ownership of the objects they write, broadcasting new versions of
// broadcast-mode objects.
func (m *Machine) MainTouches(accs []jade.Access) {
	main := m.nodes[0]
	for _, a := range accs {
		o := a.Obj
		st := m.objs[o.ID]
		if a.Reads() {
			if main.store[o.ID] != a.RequiredVersion {
				// Synchronous fetch: request to owner, reply with the
				// object; the main program blocks until arrival.
				issued := main.cpu.FreeAt()
				reqSent := main.nic.Submit(issued, sim.Time(m.cfg.sendOccupancy(m.cfg.RequestBytes)), nil)
				repSent := m.nodes[st.owner].nic.Submit(reqSent+sim.Time(m.cfg.MsgLatencySec), sim.Time(m.cfg.sendOccupancy(o.Size)), nil)
				arrive := repSent + sim.Time(m.cfg.MsgLatencySec)
				main.cpu.Advance(arrive)
				main.store[o.ID] = a.RequiredVersion
				m.stats.MsgBytes += int64(o.Size)
				m.stats.MsgCount++
				obsv.Emit(m.Sink, obsv.Event{Kind: obsv.Fetch, Obj: int(o.ID), Name: o.Name, Bytes: o.Size,
					At: float64(issued), End: float64(arrive), Flag: st.owner != 0})
				obsv.Emit(m.Sink, obsv.Event{Kind: obsv.FetchEnd, Task: -1, At: float64(issued), End: float64(arrive)})
			}
			m.noteAccess(o.ID, a.RequiredVersion, 0)
		}
		if a.Writes() {
			m.produce(o, a.RequiredVersion+1, 0)
		}
	}
}

// nextChunk sizes a slab's next chunk: doubling from a small start so
// short runs allocate little while long runs quickly reach a cheap
// steady state.
func nextChunk(prev int) int {
	switch {
	case prev == 0:
		return 32
	case prev >= 1024:
		return 1024
	default:
		return 2 * prev
	}
}
