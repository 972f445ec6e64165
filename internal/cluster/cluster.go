// Package cluster models the paper's third platform: a heterogeneous
// collection of workstations ("Jade implementations exist for shared
// memory machines, message passing machines and heterogeneous
// collections of workstations. Jade programs port without modification
// between all platforms."). The model is a set of workstations of
// differing speeds on a single shared Ethernet-style medium: every
// message — task assignment, object fetch, completion — serializes on
// the shared bus, and per-message latency is three orders of magnitude
// above the iPSC's. The Jade implementation on top is the
// message-passing one (demand fetch with replication) with the kit's
// centralized scheduler, which can optionally prefer the fastest idle
// workstation.
package cluster

import (
	"repro/internal/jade"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Config parameterizes the workstation cluster.
type Config struct {
	// Speeds lists one relative speed per workstation (1.0 = the
	// reference processor). Its length is the machine size.
	Speeds []float64
	// BusBytesPerSec is the shared-medium bandwidth (classic
	// 10 Mbit/s Ethernet ≈ 1.25 MB/s).
	BusBytesPerSec float64
	// MsgLatencySec is the per-message software+wire latency (~1 ms
	// through the TCP stacks of the era).
	MsgLatencySec float64
	// SendOverheadSec is the per-message bus occupancy beyond the
	// byte time (framing, protocol).
	SendOverheadSec float64
	// RequestBytes/TaskMsgBytes/CompletionBytes size the small
	// protocol messages.
	RequestBytes    int
	TaskMsgBytes    int
	CompletionBytes int
	// Task management costs on the main workstation.
	TaskCreateSec     float64
	AssignSec         float64
	CompleteHandleSec float64
	DispatchSec       float64
	// SpeedAware makes the scheduler hand a task whose target
	// workstation is busy to the fastest idle workstation rather than
	// the lowest-numbered one — the scheduling question heterogeneity
	// poses.
	SpeedAware bool
}

// DefaultConfig builds a cluster of n workstations with a deterministic
// speed mix: a fast half (1.25×) and a slow half (0.6×), on 10 Mbit/s
// shared Ethernet.
func DefaultConfig(n int) Config {
	speeds := make([]float64, n)
	for i := range speeds {
		if i%2 == 0 {
			speeds[i] = 1.25
		} else {
			speeds[i] = 0.6
		}
	}
	return Config{
		Speeds:            speeds,
		BusBytesPerSec:    1.25e6,
		MsgLatencySec:     1e-3,
		SendOverheadSec:   200e-6,
		RequestBytes:      64,
		TaskMsgBytes:      512,
		CompletionBytes:   64,
		TaskCreateSec:     150e-6,
		AssignSec:         250e-6,
		CompleteHandleSec: 250e-6,
		DispatchSec:       100e-6,
	}
}

// busTime is the shared-medium occupancy for one message.
func (c *Config) busTime(bytes int) float64 {
	return c.SendOverheadSec + float64(bytes)/c.BusBytesPerSec
}

// Machine is the workstation-cluster platform: the kit's centralized
// scheduler over the shared-bus cost model.
type Machine struct {
	machine.Central
	cfg Config

	bus sim.Processor // the single shared medium
	// owner[id] is the workstation holding an object's latest version;
	// stores[p][id] is the version workstation p has a copy of, or -1.
	owner  []int
	stores [][]jade.Version
	// replyH lands a fetch reply; it takes a kit message index.
	replyH sim.Handler
}

var (
	_ jade.Platform = (*Machine)(nil)
	_ machine.Model = (*Machine)(nil)
)

// New builds a cluster machine.
func New(cfg Config) *Machine {
	m := &Machine{}
	m.Reset(cfg)
	return m
}

// Reset returns the machine to the state New(cfg) builds, for any
// workstation count, keeping the storage of its ownership tables and
// the kit's records; the sink is cleared.
func (m *Machine) Reset(cfg Config) {
	if len(cfg.Speeds) < 1 {
		panic("cluster: need at least one workstation")
	}
	fresh := m.Eng == nil
	m.cfg = cfg
	m.Central.Reset(len(cfg.Speeds), machine.Params{
		CreateSec: cfg.TaskCreateSec, AssignSec: cfg.AssignSec, CompleteSec: cfg.CompleteHandleSec,
		DispatchSec: cfg.DispatchSec, TaskMsgBytes: cfg.TaskMsgBytes, CompletionBytes: cfg.CompletionBytes,
		TargetTasks: 1,
	}, m)
	if fresh {
		m.replyH = m.Eng.RegisterHandler(m.reply)
	}
	m.bus = sim.MakeProcessor(m.Eng)
	m.owner = m.owner[:0]
	m.stores = machine.Resize(m.stores, len(cfg.Speeds))
	for i := range m.stores {
		m.stores[i] = m.stores[i][:0]
	}
}

// ObjectAllocated implements jade.Platform: main initializes all data.
func (m *Machine) ObjectAllocated(o *jade.Object) {
	m.owner = append(m.owner, 0)
	for p := range m.stores {
		m.stores[p] = append(m.stores[p], -1)
	}
	m.stores[0][o.ID] = 0
}

// Link implements machine.Model: every message serializes on the bus.
func (m *Machine) Link(from, to, bytes int) machine.Leg {
	return machine.Leg{Res: &m.bus, Occ: sim.Time(m.cfg.busTime(bytes)), Lat: sim.Time(m.cfg.MsgLatencySec), Bytes: bytes}
}

// CPUTime implements machine.Model: the workstation's speed.
func (m *Machine) CPUTime(p int, w float64) float64 { return w / m.cfg.Speeds[p] }

// SerialWork implements jade.Platform.
func (m *Machine) SerialWork(d float64) {
	m.CPUs[0].Submit(m.Eng.Now(), sim.Time(m.CPUTime(0, d)), nil)
}

// MainTouches implements jade.Platform.
func (m *Machine) MainTouches(accs []jade.Access) {
	store := m.stores[0]
	for _, a := range accs {
		o := a.Obj
		if a.Reads() && store[o.ID] != a.RequiredVersion {
			owner := m.owner[o.ID]
			m.MainFetch(m.Route(0, owner, m.cfg.RequestBytes), m.Route(owner, 0, o.Size), []jade.Access{a}, false)
			store[o.ID] = a.RequiredVersion
		}
		if a.Writes() {
			m.owner[o.ID] = 0
			store[o.ID] = a.RequiredVersion + 1
		}
	}
}

// Schedule implements machine.Model: to the target owner's workstation
// when it is idle, otherwise to an idle workstation — the
// lowest-numbered, or with SpeedAware the fastest — or to the pool.
func (m *Machine) Schedule(ts *machine.TaskState) int {
	if lobj := ts.T.LocalityObject(m.RT.Config().Locality); lobj != nil {
		ts.Target = m.owner[lobj.ID]
	}
	if m.Load[ts.Target] == 0 {
		return ts.Target
	}
	pick, best := -1, -1.0
	for p, l := range m.Load {
		if l > 0 {
			continue
		}
		score := 1.0
		if m.cfg.SpeedAware {
			score = m.cfg.Speeds[p]
		}
		if score > best {
			pick, best = p, score
		}
	}
	return pick
}

// PickPooled implements machine.Model: the first pooled task that
// targets p, else the oldest.
func (m *Machine) PickPooled(p int) int {
	for i, ts := range m.Pool {
		if ts.Target == p {
			return i
		}
	}
	return 0
}

// Arrive implements machine.Model: fetch the remote objects the task
// declared, one bus transaction per object (request then reply, both
// on the shared medium).
func (m *Machine) Arrive(ts *machine.TaskState) {
	p := ts.Proc
	for _, a := range ts.T.Accesses {
		if a.Reads() && m.stores[p][a.Obj.ID] != a.RequiredVersion {
			m.Gather(a, m.owner[a.Obj.ID])
		}
	}
	// Uncoalesced: every message carries one object.
	msgs := m.StartFetch(ts, false)
	if len(msgs) == 0 {
		m.Ready(ts)
		return
	}
	for _, i := range msgs {
		msg := m.Msg(i)
		msg.Issued = m.Eng.Now()
		m.Eng.AtCall(m.RoundTrip(msg.Issued, m.Route(p, msg.Dest, m.cfg.RequestBytes),
			m.Route(msg.Dest, p, msg.Batch[0].Obj.Size)), m.replyH, i)
	}
}

// reply lands fetch message i's object at the requesting workstation.
func (m *Machine) reply(i int32) {
	msg := m.Msg(i)
	p, a := msg.TS.Proc, msg.Batch[0]
	m.stores[p][a.Obj.ID] = a.RequiredVersion
	// Every fetched object is a read copy here, whoever owns it now.
	m.Replied(p, msg.Batch, true, float64(msg.Issued), float64(m.Eng.Now()))
	m.Fetched(i)
}

// Release implements machine.Model: the workstation owns each released
// write's new version at once, and its waiters are enabled.
func (m *Machine) Release(ts *machine.TaskState, objs []*jade.Object) {
	for _, o := range objs {
		if a, ok := ts.T.AccessOn(o); ok && a.Writes() {
			m.publish(a, ts.Proc)
		}
		m.RT.ReleaseEarly(ts.T, o)
	}
}

// Complete implements machine.Model: the workstation owns every
// version the task wrote and did not already release.
func (m *Machine) Complete(ts *machine.TaskState) {
	for _, a := range ts.T.Accesses {
		if a.Writes() && !m.ReleasedEarly(ts, a.Obj) {
			m.publish(a, ts.Proc)
		}
	}
}

// publish makes workstation p the owner of the version write a
// produces.
func (m *Machine) publish(a jade.Access, p int) {
	m.owner[a.Obj.ID] = p
	m.stores[p][a.Obj.ID] = a.RequiredVersion + 1
}
