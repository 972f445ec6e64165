package ipsc

import (
	"math/bits"
	"slices"

	"repro/internal/jade"
	"repro/internal/machine"
	"repro/internal/sim"
)

// node is what a hypercube node adds to its CPU: a NIC that serializes
// outgoing messages and the node's object store. Interrupt-driven
// protocol work (object replies) costs NIC time but does not occupy the
// CPU, matching the NX/2 handler model.
type node struct {
	nic sim.Processor
	// store holds, per object ID, the version this node has a copy of,
	// or -1 for none. Object IDs are dense, so a slice indexed by ID
	// replaces the former map on this hot path.
	store []jade.Version
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

// Machine is the iPSC/860-style message-passing platform: the kit's
// centralized scheduler over the hypercube cost model, the §3.4
// communicator and the §3.4.3 scheduling policy.
type Machine struct {
	machine.Central
	cfg Config

	nodes []node
	// storeFlat backs every node's store (ReserveCapacity).
	storeFlat []jade.Version
	// objs is indexed by object ID (dense, allocation order); its
	// values live in osSlab, so pointers to them stay stable.
	objs     []*objState
	osSlab   machine.Arena[objState]
	fcfsNext int // rotating pointer for NoLocality FCFS

	// The message legs, each a registered handler taking a kit message
	// index: a fetch's request and reply, a broadcast's arrival at
	// every node, and an eager update's push.
	requestH, replyH, bcastH, pushH sim.Handler
}

var (
	_ jade.Platform = (*Machine)(nil)
	_ machine.Model = (*Machine)(nil)
)

// New builds an iPSC machine from cfg.
func New(cfg Config) *Machine {
	m := &Machine{}
	m.Reset(cfg)
	return m
}

// Reset returns the machine to the state New(cfg) builds, for any
// processor count, keeping the storage of its nodes, object states and
// the kit's records; the fault injector and the sink are cleared.
func (m *Machine) Reset(cfg Config) {
	if cfg.Procs < 1 {
		panic("ipsc: need at least one processor")
	}
	if cfg.Procs > 64 {
		panic("ipsc: at most 64 processors (procSet is one word)")
	}
	if cfg.TargetTasks < 1 {
		cfg.TargetTasks = 1
	}
	fresh := m.Eng == nil
	m.cfg = cfg
	m.Central.Reset(cfg.Procs, machine.Params{
		CreateSec: cfg.TaskCreateSec, AssignSec: cfg.AssignSec, CompleteSec: cfg.CompleteHandleSec,
		DispatchSec: cfg.DispatchSec, TaskMsgBytes: cfg.TaskMsgBytes, CompletionBytes: cfg.CompletionBytes,
		TargetTasks: cfg.TargetTasks, FetchStall: true,
	}, m)
	if fresh {
		m.requestH = m.Eng.RegisterHandler(m.request)
		m.replyH = m.Eng.RegisterHandler(m.reply)
		m.bcastH = m.Eng.RegisterHandler(m.bcastArrived)
		m.pushH = m.Eng.RegisterHandler(m.pushed)
	}
	m.nodes = machine.Resize(m.nodes, cfg.Procs)
	for i := range m.nodes {
		m.nodes[i] = node{nic: sim.MakeProcessor(m.Eng), store: m.nodes[i].store[:0]}
	}
	clear(m.objs)
	m.objs = m.objs[:0]
	m.osSlab.Reset()
	m.fcfsNext = 0
}

// ReserveCapacity implements the replay capacity hint: size the dense
// per-object and per-task structures for the counts the plan already
// knows, so the run appends without ever growing them.
func (m *Machine) ReserveCapacity(objects, tasks int) {
	m.Central.ReserveCapacity(objects, tasks)
	m.objs = machine.Reserve(m.objs, objects)
	m.osSlab.Reserve(objects)
	// One backing array for every node's store: each node appends
	// within its own fixed-capacity window.
	m.storeFlat = machine.Reserve(m.storeFlat, objects*len(m.nodes))
	flat := m.storeFlat[:cap(m.storeFlat)]
	for i := range m.nodes {
		m.nodes[i].store = flat[i*objects : i*objects : (i+1)*objects]
	}
}

// ObjectAllocated implements jade.Platform. On a message-passing
// machine the main program initializes every object, so node 0 owns
// the initial version regardless of the placement hint (this is what
// costs Panel Cholesky its first-touch locality on the iPSC, Figure
// 15).
func (m *Machine) ObjectAllocated(o *jade.Object) {
	st := m.osSlab.New()
	*st = objState{owner: 0, version: 0, accessedBy: oneProc(0)}
	m.objs = append(m.objs, st)
	for i := range m.nodes {
		m.nodes[i].store = append(m.nodes[i].store, -1)
	}
	m.nodes[0].store[o.ID] = 0
}

// SerialWork implements jade.Platform. Serial phases run on node 0,
// so a straggling main processor stretches them too.
func (m *Machine) SerialWork(d float64) {
	m.CPUs[0].Submit(m.Eng.Now(), sim.Time(m.CPUTime(0, d)), nil)
}

// CPUTime implements machine.Model: the i860's speed, stretched on a
// straggler.
func (m *Machine) CPUTime(p int, w float64) float64 {
	return w * m.cfg.SpeedFactor * m.Inj.CPUFactor(p)
}

// Link implements machine.Model: a message occupies the sender's NIC
// and pays the hop-priced wire latency.
func (m *Machine) Link(from, to, bytes int) machine.Leg {
	return machine.Leg{Res: &m.nodes[from].nic, Occ: sim.Time(m.cfg.sendOccupancy(bytes)),
		Lat: sim.Time(m.cfg.msgLatency(from, to)), Bytes: bytes}
}

// Schedule implements machine.Model: the centralized scheduling
// decision on the main processor for one enabled task (§3.4.3).
func (m *Machine) Schedule(ts *machine.TaskState) int {
	t := ts.T
	if lobj := t.LocalityObject(m.RT.Config().Locality); lobj != nil {
		// The owner of the locality object is guaranteed to hold its
		// latest version (§3.4.3).
		ts.Target = m.objs[lobj.ID].owner
	}
	switch {
	case m.cfg.Level == TaskPlacement && t.Placed >= 0:
		// Explicit placement still respects the target load: the
		// scheduler only keeps each processor supplied with
		// TargetTasks tasks at a time (§3.4.3).
		if m.Load[t.Placed] >= m.cfg.TargetTasks {
			return -1
		}
		return t.Placed
	case m.cfg.Level == NoLocality:
		return m.pickIdleFCFS()
	}
	return m.pickLeastLoaded(ts.Target)
}

// pickIdleFCFS implements the NoLocality single-queue policy: hand the
// task to an idle processor, rotating for fairness, or report none.
func (m *Machine) pickIdleFCFS() int {
	for i := 0; i < m.cfg.Procs; i++ {
		p := (m.fcfsNext + i) % m.cfg.Procs
		if m.Load[p] == 0 {
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
func (m *Machine) pickLeastLoaded(target int) int {
	minLoad := slices.Min(m.Load)
	if minLoad >= m.cfg.TargetTasks {
		return -1
	}
	if m.Load[target] == minLoad {
		return target
	}
	if m.cfg.StickyTarget && m.Load[target] < m.cfg.TargetTasks+1 {
		return target
	}
	for p, l := range m.Load {
		if l == minLoad {
			return p
		}
	}
	return -1
}

// PickPooled implements machine.Model: prefer pooled tasks whose
// target is p (§3.4.3). Explicitly placed tasks only ever go to their
// placed processor.
func (m *Machine) PickPooled(p int) int {
	placedOnly := func(ts *machine.TaskState) bool {
		return m.cfg.Level == TaskPlacement && ts.T.Placed >= 0
	}
	// First pass: tasks bound or targeted to p.
	for i, ts := range m.Pool {
		if placedOnly(ts) {
			if ts.T.Placed == p {
				return i
			}
			continue
		}
		if m.cfg.Level != NoLocality && ts.Target == p {
			return i
		}
	}
	// Second pass: any assignable task.
	for i, ts := range m.Pool {
		if !placedOnly(ts) || ts.T.Placed == p {
			return i
		}
	}
	return -1
}

// Arrive implements machine.Model. It runs in the receiving node's
// message handler: it immediately requests every remote object the
// task will access (§3.4.3), in parallel when ConcurrentFetch is on.
func (m *Machine) Arrive(ts *machine.TaskState) {
	p := ts.Proc
	for _, a := range ts.T.Accesses {
		if !a.Reads() {
			continue
		}
		if m.nodes[p].store[a.Obj.ID] == a.RequiredVersion {
			m.noteAccess(a.Obj.ID, a.RequiredVersion, p)
			continue
		}
		m.Gather(a, m.objs[a.Obj.ID].owner)
	}
	// With coalescing on, same-owner fetches share one request/reply
	// pair; off, every message carries one object and the path below is
	// the classic per-object protocol.
	msgs := m.StartFetch(ts, m.cfg.Coalescing)
	if len(msgs) == 0 {
		m.Ready(ts)
		return
	}
	if !m.cfg.ConcurrentFetch {
		// Serial fetch chain: each reply issues the next message.
		msgs = msgs[:1]
	}
	for _, i := range msgs {
		m.fetch(i)
	}
}

// fetch issues fetch message i's request to the current owner of its
// objects. A batch travels as one message: on a lossy machine a drop
// loses the whole batch and the retransmit protocol resends all of it.
func (m *Machine) fetch(i int32) {
	msg := m.Msg(i)
	// A serial chain's later messages go to whoever owns their objects
	// when they leave.
	msg.Dest = m.objs[msg.Batch[0].Obj.ID].owner
	msg.Issued = m.Eng.Now()
	m.Transmit(msg.Issued, msg.TS.Proc, msg.Dest, m.cfg.RequestBytes, m.requestH, i)
}

// request handles a fetch request at the owner: it records the
// accesses and replies with the batch's objects behind one message
// header.
func (m *Machine) request(i int32) {
	msg := m.Msg(i)
	p := msg.TS.Proc
	m.Arrived(m.cfg.RequestBytes, 0)
	for _, a := range msg.Batch {
		m.noteAccess(a.Obj.ID, a.RequiredVersion, p)
	}
	m.Transmit(m.Eng.Now(), msg.Dest, p, machine.Payload(msg.Batch), m.replyH, i)
}

// reply lands a fetch reply: the node stores the batch's versions, a
// serial chain issues its next message, and the task becomes ready
// when its last message is in.
func (m *Machine) reply(i int32) {
	msg := m.Msg(i)
	p := msg.TS.Proc
	for _, a := range msg.Batch {
		m.nodes[p].store[a.Obj.ID] = a.RequiredVersion
	}
	m.Replied(p, msg.Batch, msg.Dest != p, float64(msg.Issued), float64(m.Eng.Now()))
	if !m.cfg.ConcurrentFetch && msg.Next >= 0 {
		m.fetch(msg.Next)
	}
	m.Fetched(i)
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

// Release implements machine.Model: the node becomes the owner of each
// released write's new version at once, and its waiters are enabled.
func (m *Machine) Release(ts *machine.TaskState, objs []*jade.Object) {
	for _, o := range objs {
		if a, ok := ts.T.AccessOn(o); ok && a.Writes() {
			m.produce(o, a.RequiredVersion+1, ts.Proc)
		}
		m.RT.ReleaseEarly(ts.T, o)
	}
}

// Complete implements machine.Model: apply the task's writes to the
// ownership map, with adaptive broadcasts of newly produced versions.
func (m *Machine) Complete(ts *machine.TaskState) {
	for _, a := range ts.T.Accesses {
		if a.Writes() && !m.ReleasedEarly(ts, a.Obj) {
			m.produce(a.Obj, a.RequiredVersion+1, ts.Proc)
		}
	}
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
	if m.RT.Config().WorkFree {
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
	m.Broadcasted(p, o, v)
	cpuDone := m.CPUs[p].Submit(m.Eng.Now(),
		sim.Time(m.cfg.BcastSetupSec+m.cfg.byteTime(o.Size)), nil)
	steps := m.cfg.bcastSteps()
	nicDone := m.nodes[p].nic.Submit(cpuDone,
		sim.Time(float64(steps)*m.cfg.sendOccupancy(o.Size)), nil)
	arrive := nicDone + sim.Time(m.cfg.MsgLatencySec)
	m.Eng.AtCall(arrive, m.bcastH, m.NewMsg(p, jade.Access{Obj: o, RequiredVersion: v}))
}

// bcastArrived lands broadcast message i: every node now holds the
// version, unless a newer one superseded it in flight.
func (m *Machine) bcastArrived(i int32) {
	a := m.Msg(i).Batch[0]
	if m.objs[a.Obj.ID].version == a.RequiredVersion {
		for q := range m.nodes {
			m.nodes[q].store[a.Obj.ID] = a.RequiredVersion
		}
	}
	m.FreeMsg(i)
}

// eagerUpdate implements the §6 update protocol: push the new version
// to every processor that accessed the previous one. Each push is a
// point-to-point send serialized on the producer's NIC; a consumer
// that never reads the version again makes the transfer pure waste,
// which is exactly how the protocol degrades irregular applications.
func (m *Machine) eagerUpdate(o *jade.Object, v jade.Version, p int, readers procSet) {
	// Deterministic order.
	for q := 0; q < m.cfg.Procs; q++ {
		if q == p || !readers.has(q) {
			continue
		}
		m.Transmit(m.Eng.Now(), p, q, o.Size, m.pushH, m.NewMsg(q, jade.Access{Obj: o, RequiredVersion: v}))
	}
}

// pushed lands update push i at its reader, unless a newer version
// superseded it in flight.
func (m *Machine) pushed(i int32) {
	msg := m.Msg(i)
	a := msg.Batch[0]
	m.Pushed(msg.Dest, msg.Batch)
	if m.objs[a.Obj.ID].version == a.RequiredVersion {
		m.nodes[msg.Dest].store[a.Obj.ID] = a.RequiredVersion
	}
	m.FreeMsg(i)
}

// MainTouches implements jade.Platform: serial phases fetch the
// objects they read to node 0 (blocking the main program) and take
// ownership of the objects they write, broadcasting new versions of
// broadcast-mode objects.
func (m *Machine) MainTouches(accs []jade.Access) {
	main := &m.nodes[0]
	for _, a := range accs {
		o := a.Obj
		st := m.objs[o.ID]
		if a.Reads() {
			if main.store[o.ID] != a.RequiredVersion {
				// Synchronous fetch: request to the owner, reply with the
				// object, on healthy links at the flat message latency.
				req := m.Link(0, st.owner, m.cfg.RequestBytes)
				req.Lat = sim.Time(m.cfg.MsgLatencySec)
				m.MainFetch(req, m.Link(st.owner, 0, o.Size), []jade.Access{a}, false)
				main.store[o.ID] = a.RequiredVersion
			}
			m.noteAccess(o.ID, a.RequiredVersion, 0)
		}
		if a.Writes() {
			m.produce(o, a.RequiredVersion+1, 0)
		}
	}
}
