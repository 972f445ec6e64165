package pgas

import (
	"repro/internal/jade"
	"repro/internal/machine"
	"repro/internal/obsv"
	"repro/internal/sim"
)

// absentVersion marks an object not present in a locale's cache.
const absentVersion jade.Version = -1

// Machine is the PGAS platform: the kit's centralized scheduler over
// the one-sided cost model, the owner-computes policy and a software
// write-back cache per locale. One-sided remote operations occupy the
// issuing NIC (and, for the data leg of a get, the home NIC) but never
// a remote CPU; faults degrade them through the injector's link and
// remote-latency hooks. The fabric is reliable: a run spec's loss
// faults are canonicalized away here, so the kit's retransmit protocol
// never runs.
type Machine struct {
	machine.Central
	cfg Config

	nics []sim.Processor
	// stores[p][id] is the object version cached at locale p, or
	// absentVersion. The home locale always holds the authoritative
	// copy of its segment's objects.
	stores [][]jade.Version

	// gotH lands a get's data leg and putH a write-back; both take a
	// kit message index.
	gotH, putH sim.Handler
}

var (
	_ jade.Platform = (*Machine)(nil)
	_ machine.Model = (*Machine)(nil)
)

// New builds a PGAS machine.
func New(cfg Config) *Machine {
	m := &Machine{}
	m.Reset(cfg)
	return m
}

// Reset returns the machine to the state New(cfg) builds, for any
// locale count, keeping the storage of its stores and the kit's
// records; the fault injector and the sink are cleared.
func (m *Machine) Reset(cfg Config) {
	if cfg.Procs < 1 {
		panic("pgas: need at least one locale")
	}
	if cfg.TargetTasks < 1 {
		cfg.TargetTasks = 1
	}
	fresh := m.Eng == nil
	m.cfg = cfg
	m.Central.Reset(cfg.Procs, machine.Params{
		CreateSec: cfg.TaskCreateSec, AssignSec: cfg.AssignSec, CompleteSec: cfg.CompleteHandleSec,
		DispatchSec: cfg.DispatchSec, TaskMsgBytes: cfg.TaskMsgBytes, CompletionBytes: cfg.CompletionBytes,
		TargetTasks: cfg.TargetTasks, FetchStall: true, HeaderBytes: cfg.HeaderBytes,
	}, m)
	if fresh {
		m.gotH = m.Eng.RegisterHandler(m.got)
		m.putH = m.Eng.RegisterHandler(m.put)
	}
	m.nics = machine.Resize(m.nics, cfg.Procs)
	for i := range m.nics {
		m.nics[i] = sim.MakeProcessor(m.Eng)
	}
	m.stores = machine.Resize(m.stores, cfg.Procs)
	for i := range m.stores {
		m.stores[i] = m.stores[i][:0]
	}
}

// ObjectAllocated implements jade.Platform: the object's segment is
// allocated in place at its home locale.
func (m *Machine) ObjectAllocated(o *jade.Object) {
	for p := range m.stores {
		m.stores[p] = append(m.stores[p], absentVersion)
	}
	m.stores[o.Home][o.ID] = 0
}

// Link implements machine.Model: the message occupies the sending NIC
// and pays the wire latency of its destination, the remote end of a
// one-sided operation; victim locales answer slower.
func (m *Machine) Link(from, to, bytes int) machine.Leg {
	return machine.Leg{Res: &m.nics[from], Occ: sim.Time(m.cfg.occupancy(bytes)),
		Lat: sim.Time(m.cfg.RemoteLatencySec * m.Inj.RemoteFactor(to, m.cfg.Procs)), Bytes: bytes}
}

// CPUTime implements machine.Model: a modern core, stretched on a
// straggler.
func (m *Machine) CPUTime(p int, w float64) float64 {
	return w * m.cfg.SpeedFactor * m.Inj.CPUFactor(p)
}

// SerialWork implements jade.Platform.
func (m *Machine) SerialWork(d float64) {
	m.CPUs[0].Submit(m.Eng.Now(), sim.Time(d*m.cfg.SpeedFactor), nil)
}

// MainTouches implements jade.Platform: serial phases get remote
// objects to the main locale synchronously (batched per home when
// aggregation is on) and write back produced versions.
func (m *Machine) MainTouches(accs []jade.Access) {
	store := m.stores[0]
	for _, a := range accs {
		if a.Reads() && !m.local(0, a) {
			m.Gather(a, a.Obj.Home)
		}
	}
	for _, i := range m.Group(m.cfg.Aggregation) {
		batch, h := m.Msg(i).Batch, m.Msg(i).Dest
		for _, a := range batch {
			store[a.Obj.ID] = a.RequiredVersion
		}
		m.MainFetch(m.Route(0, h, 0), m.Route(h, 0, machine.Payload(batch)), batch, true)
		m.FreeMsg(i)
	}
	for _, a := range accs {
		if a.Writes() {
			v := a.RequiredVersion + 1
			store[a.Obj.ID] = v
			m.writeBack(0, a.Obj, v)
		}
	}
	m.flushWrites(0)
}

// Schedule implements machine.Model. The affinity target is the home
// locale of the task's locality object (owner-computes); explicit
// placement overrides it at the TaskPlacement level.
func (m *Machine) Schedule(ts *machine.TaskState) int {
	t := ts.T
	if lobj := t.LocalityObject(m.RT.Config().Locality); lobj != nil {
		ts.Target = lobj.Home
	}
	if m.cfg.Level == TaskPlacement && t.Placed >= 0 {
		ts.Target = t.Placed
	}
	if m.cfg.Level == NoAffinity {
		for p, l := range m.Load {
			if l < m.cfg.TargetTasks {
				return p
			}
		}
		return -1
	}
	// Work follows data: wait for the target locale rather than run
	// remotely — remote execution would turn every access into
	// fine-grained remote traffic.
	if m.Load[ts.Target] < m.cfg.TargetTasks {
		return ts.Target
	}
	return -1
}

// PickPooled implements machine.Model: any pooled task under
// NoAffinity (FIFO), only tasks targeting p otherwise.
func (m *Machine) PickPooled(p int) int {
	if m.cfg.Level == NoAffinity {
		return 0
	}
	for i, ts := range m.Pool {
		if ts.Target == p {
			return i
		}
	}
	return -1
}

// local reports whether locale p reads a from its cache or its own
// segment, where the authoritative copy is already local once
// predecessors wrote it back, and records the read if so.
func (m *Machine) local(p int, a jade.Access) bool {
	o, store := a.Obj, m.stores[p]
	cached := store[o.ID] == a.RequiredVersion
	if !cached && o.Home != p {
		return false
	}
	store[o.ID] = a.RequiredVersion
	m.Accessed(p, o, obsv.Hit, 0)
	return true
}

// Arrive implements machine.Model: resolve the task's declared reads
// against the locale's cache and segment, then issue one-sided gets
// for the rest — batched per home locale when aggregation is on.
func (m *Machine) Arrive(ts *machine.TaskState) {
	p := ts.Proc
	for _, a := range ts.T.Accesses {
		if a.Reads() && !m.local(p, a) {
			m.Gather(a, a.Obj.Home)
		}
	}
	msgs := m.StartFetch(ts, m.cfg.Aggregation)
	if len(msgs) == 0 {
		m.Ready(ts)
		return
	}
	for _, i := range msgs {
		m.get(i)
	}
}

// get issues fetch message i as one one-sided (possibly batched)
// remote get: the request descriptor occupies the issuing NIC, the
// data leg the home NIC, and both legs pay the home's wire latency.
func (m *Machine) get(i int32) {
	msg := m.Msg(i)
	p, h := msg.TS.Proc, msg.Dest
	msg.Issued = m.Eng.Now()
	m.Eng.AtCall(m.RoundTrip(msg.Issued, m.Route(p, h, 0), m.Route(h, p, machine.Payload(msg.Batch))), m.gotH, i)
}

// got lands get i's data leg at the issuing locale.
func (m *Machine) got(i int32) {
	msg := m.Msg(i)
	p := msg.TS.Proc
	for _, a := range msg.Batch {
		m.stores[p][a.Obj.ID] = a.RequiredVersion
	}
	m.Got(p, msg.Batch, float64(msg.Issued), float64(m.Eng.Now()))
	m.Fetched(i)
}

// Release implements machine.Model: a segment boundary writes the
// released objects back to their homes, then enables their waiters.
func (m *Machine) Release(ts *machine.TaskState, objs []*jade.Object) {
	p := ts.Proc
	for _, o := range objs {
		if a, ok := ts.T.AccessOn(o); ok && a.Writes() {
			v := a.RequiredVersion + 1
			m.stores[p][o.ID] = v
			m.writeBack(p, o, v)
		}
	}
	m.flushWrites(p)
	for _, o := range objs {
		m.RT.ReleaseEarly(ts.T, o)
	}
}

// Complete implements machine.Model: write produced versions back to
// their home segments (release consistency: the puts are asynchronous
// background traffic).
func (m *Machine) Complete(ts *machine.TaskState) {
	p := ts.Proc
	store := m.stores[p]
	for _, a := range ts.T.Accesses {
		if !a.Writes() {
			continue
		}
		o := a.Obj
		v := a.RequiredVersion + 1
		if store[o.ID] == v {
			// A staged release already produced and flushed this write.
			continue
		}
		store[o.ID] = v
		m.writeBack(p, o, v)
	}
	m.flushWrites(p)
}

// writeBack queues version v of o, produced at locale p, for its home
// segment; flushWrites sends the queue. Work-free runs still need the
// version bookkeeping so later phases resolve, but skip the traffic
// like task-level gets, so the home copy is installed at once.
func (m *Machine) writeBack(p int, o *jade.Object, v jade.Version) {
	switch {
	case o.Home == p:
	case m.RT.Config().WorkFree:
		m.stores[o.Home][o.ID] = v
	default:
		m.Gather(jade.Access{Obj: o, RequiredVersion: v}, o.Home)
	}
}

// flushWrites issues one-sided puts carrying the queued write-backs to
// their home segments, batched per home when aggregation is on. The
// puts occupy the issuing NIC and land asynchronously — completion
// does not wait for them (release consistency); ordering correctness
// comes from the synchronizer, the puts model the wire cost.
func (m *Machine) flushWrites(p int) {
	for _, i := range m.Group(m.cfg.Aggregation) {
		msg := m.Msg(i)
		m.Transmit(m.Eng.Now(), p, msg.Dest, machine.Payload(msg.Batch), m.putH, i)
	}
}

// put lands write-back i in its home segment.
func (m *Machine) put(i int32) {
	msg := m.Msg(i)
	for _, a := range msg.Batch {
		m.stores[msg.Dest][a.Obj.ID] = a.RequiredVersion
	}
	m.Put(msg.Batch)
	m.FreeMsg(i)
}
