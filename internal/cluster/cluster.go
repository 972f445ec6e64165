// Package cluster models the paper's third platform: a heterogeneous
// collection of workstations ("Jade implementations exist for shared
// memory machines, message passing machines and heterogeneous
// collections of workstations. Jade programs port without modification
// between all platforms."). The model is a set of workstations of
// differing speeds on a single shared Ethernet-style medium: every
// message — task assignment, object fetch, completion — serializes on
// the shared bus, and per-message latency is three orders of magnitude
// above the iPSC's. The Jade implementation on top is the
// message-passing one (demand fetch with replication) with a
// centralized scheduler that can optionally weight processor load by
// workstation speed.
package cluster

import (
	"repro/internal/jade"
	"repro/internal/metrics"
	"repro/internal/obsv"
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
	// SpeedAware makes the scheduler weight load by workstation
	// speed (assign to the workstation with the least *time* of
	// queued work rather than the fewest tasks) — the scheduling
	// question heterogeneity poses.
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

// station is one workstation.
type station struct {
	cpu   *sim.Processor
	store map[jade.ObjectID]jade.Version
	// queued is the modeled time of assigned-but-unfinished work.
	queued float64
	load   int
}

// taskState mirrors the scheduler/communicator bookkeeping.
type taskState struct {
	t          *jade.Task
	target     int
	proc       int
	needed     int
	firstReq   sim.Time
	lastArrive sim.Time
}

// Machine is the workstation-cluster platform implementing
// jade.Platform.
type Machine struct {
	cfg Config
	eng *sim.Engine
	rt  *jade.Runtime

	stations []*station
	bus      *sim.Processor // the single shared medium
	owner    map[jade.ObjectID]int

	pool        []*taskState
	createdDone map[jade.TaskID]sim.Time

	// Sink, when non-nil, receives the run's simulated-event stream
	// (obsv.Observer, trace.Trace); nil costs nothing.
	Sink obsv.Sink

	stats    metrics.Run
	execBase sim.Time
	busyBase []float64
}

var _ jade.Platform = (*Machine)(nil)

// New builds a cluster machine.
func New(cfg Config) *Machine {
	if len(cfg.Speeds) < 1 {
		panic("cluster: need at least one workstation")
	}
	m := &Machine{
		cfg:         cfg,
		eng:         sim.New(),
		owner:       make(map[jade.ObjectID]int),
		createdDone: make(map[jade.TaskID]sim.Time),
	}
	m.bus = sim.NewProcessor(m.eng)
	for range cfg.Speeds {
		m.stations = append(m.stations, &station{
			cpu:   sim.NewProcessor(m.eng),
			store: make(map[jade.ObjectID]jade.Version),
		})
	}
	m.stats.Procs = len(cfg.Speeds)
	return m
}

// Attach implements jade.Platform.
func (m *Machine) Attach(rt *jade.Runtime) { m.rt = rt }

// Attached reports whether a runtime has ever been bound to the
// machine; graph replay uses it to refuse reused platforms.
func (m *Machine) Attached() bool { return m.rt != nil }

// Processors implements jade.Platform.
func (m *Machine) Processors() int { return len(m.cfg.Speeds) }

// ObjectAllocated implements jade.Platform: main initializes all data.
func (m *Machine) ObjectAllocated(o *jade.Object) {
	m.owner[o.ID] = 0
	m.stations[0].store[o.ID] = 0
}

// submitMgmt charges d seconds of task-management work to the main
// workstation and emits it as a Mgmt span.
func (m *Machine) submitMgmt(at sim.Time, d float64) sim.Time {
	return m.stations[0].cpu.Submit(at, sim.Time(d), obsv.Span(m.Sink, obsv.Event{Kind: obsv.Mgmt}))
}

// TaskCreated implements jade.Platform.
func (m *Machine) TaskCreated(t *jade.Task, enabled bool) {
	done := m.submitMgmt(m.eng.Now(), m.cfg.TaskCreateSec)
	m.stats.TaskMgmtTime += m.cfg.TaskCreateSec
	m.createdDone[t.ID] = done
	obsv.Emit(m.Sink, obsv.Event{Kind: obsv.Created, Task: int(t.ID), At: float64(done)})
	if enabled {
		m.eng.At(done, func() { m.schedule(t) })
	}
}

// TaskEnabled implements jade.Platform.
func (m *Machine) TaskEnabled(t *jade.Task) {
	at := m.eng.Now()
	if cd := m.createdDone[t.ID]; cd > at {
		at = cd
	}
	m.eng.At(at, func() { m.schedule(t) })
}

// SerialWork implements jade.Platform.
func (m *Machine) SerialWork(d float64) {
	m.stations[0].cpu.Submit(m.eng.Now(), sim.Time(d/m.cfg.Speeds[0]), nil)
}

// MainTouches implements jade.Platform.
func (m *Machine) MainTouches(accs []jade.Access) {
	main := m.stations[0]
	for _, a := range accs {
		o := a.Obj
		if a.Reads() {
			if v, ok := main.store[o.ID]; !ok || v != a.RequiredVersion {
				issued := main.cpu.FreeAt()
				req := m.bus.Submit(issued, sim.Time(m.cfg.busTime(m.cfg.RequestBytes)), nil)
				rep := m.bus.Submit(req+sim.Time(m.cfg.MsgLatencySec), sim.Time(m.cfg.busTime(o.Size)), nil)
				arrive := rep + sim.Time(m.cfg.MsgLatencySec)
				main.cpu.Advance(arrive)
				main.store[o.ID] = a.RequiredVersion
				m.stats.MsgBytes += int64(o.Size)
				m.stats.MsgCount++
				obsv.Emit(m.Sink, obsv.Event{Kind: obsv.Fetch, Obj: int(o.ID), Name: o.Name, Bytes: o.Size,
					At: float64(issued), End: float64(arrive), Flag: m.owner[o.ID] != 0})
				obsv.Emit(m.Sink, obsv.Event{Kind: obsv.FetchEnd, Task: -1, At: float64(issued), End: float64(arrive)})
			}
		}
		if a.Writes() {
			m.owner[o.ID] = 0
			main.store[o.ID] = a.RequiredVersion + 1
		}
	}
}

// Drain implements jade.Platform.
func (m *Machine) Drain() {
	end := m.eng.Run()
	m.stations[0].cpu.Advance(end)
}

// Stats implements jade.Platform.
func (m *Machine) Stats() *metrics.Run {
	m.stats.ExecTime = float64(m.stations[0].cpu.FreeAt() - m.execBase)
	m.stats.ProcBusy = m.stats.ProcBusy[:0]
	for i, st := range m.stations {
		b := float64(st.cpu.BusyTime())
		if i < len(m.busyBase) {
			b -= m.busyBase[i]
		}
		m.stats.ProcBusy = append(m.stats.ProcBusy, b)
	}
	return &m.stats
}

// ResetStats implements jade.Platform.
func (m *Machine) ResetStats() {
	m.stats = metrics.Run{Procs: len(m.cfg.Speeds)}
	m.execBase = m.stations[0].cpu.FreeAt()
	m.busyBase = m.busyBase[:0]
	for _, st := range m.stations {
		m.busyBase = append(m.busyBase, float64(st.cpu.BusyTime()))
	}
	obsv.Emit(m.Sink, obsv.Event{Kind: obsv.Reset})
}

// schedule assigns an enabled task: to the target owner's workstation
// when it has no queued work, otherwise to the least-loaded
// workstation (optionally weighting load by speed).
func (m *Machine) schedule(t *jade.Task) {
	lobj := t.LocalityObject(m.rt.Config().Locality)
	target := 0
	if lobj != nil {
		target = m.owner[lobj.ID]
	}
	ts := &taskState{t: t, target: target, proc: -1}

	pick := -1
	if m.stations[target].load == 0 {
		pick = target
	} else {
		best := -1.0
		for i, st := range m.stations {
			if st.load > 0 {
				continue
			}
			score := 1.0
			if m.cfg.SpeedAware {
				score = m.cfg.Speeds[i]
			}
			if score > best {
				best = score
				pick = i
			}
		}
	}
	if pick < 0 {
		m.pool = append(m.pool, ts)
		return
	}
	m.assign(ts, pick)
}

// assign sends the task message over the shared bus.
func (m *Machine) assign(ts *taskState, p int) {
	ts.proc = p
	st := m.stations[p]
	st.load++
	obsv.Emit(m.Sink, obsv.Event{Kind: obsv.Assigned, Proc: p, Task: int(ts.t.ID), N: ts.target, At: float64(m.eng.Now())})
	st.queued += ts.t.Work / m.cfg.Speeds[p]
	m.stats.TaskMgmtTime += m.cfg.AssignSec
	decided := m.submitMgmt(m.eng.Now(), m.cfg.AssignSec)
	if p == 0 {
		m.eng.At(decided, func() { m.taskArrived(ts) })
		return
	}
	sent := m.bus.Submit(decided, sim.Time(m.cfg.busTime(m.cfg.TaskMsgBytes)), nil)
	m.eng.At(sent+sim.Time(m.cfg.MsgLatencySec), func() { m.taskArrived(ts) })
}

// taskArrived fetches the remote objects the task declared, one bus
// transaction per object (request then reply, both on the shared
// medium).
func (m *Machine) taskArrived(ts *taskState) {
	p := ts.proc
	st := m.stations[p]
	var toFetch []jade.Access
	if !m.rt.Config().WorkFree {
		for _, a := range ts.t.Accesses {
			if !a.Reads() {
				continue
			}
			if v, ok := st.store[a.Obj.ID]; ok && v == a.RequiredVersion {
				continue
			}
			toFetch = append(toFetch, a)
		}
	}
	if len(toFetch) == 0 {
		m.ready(ts)
		return
	}
	ts.needed = len(toFetch)
	ts.firstReq = m.eng.Now()
	obsv.Emit(m.Sink, obsv.Event{Kind: obsv.FetchStart, Proc: p, Task: int(ts.t.ID), N: len(toFetch), At: float64(ts.firstReq)})
	for _, a := range toFetch {
		a := a
		issued := m.eng.Now()
		req := m.bus.Submit(issued, sim.Time(m.cfg.busTime(m.cfg.RequestBytes)), nil)
		rep := m.bus.Submit(req+sim.Time(m.cfg.MsgLatencySec), sim.Time(m.cfg.busTime(a.Obj.Size)), nil)
		m.eng.At(rep+sim.Time(m.cfg.MsgLatencySec), func() {
			st.store[a.Obj.ID] = a.RequiredVersion
			m.stats.MsgBytes += int64(a.Obj.Size)
			m.stats.MsgCount++
			m.stats.ReplicatedReads++
			obsv.Emit(m.Sink, obsv.Event{Kind: obsv.Fetch, Proc: p, Obj: int(a.Obj.ID), Name: a.Obj.Name, Bytes: a.Obj.Size,
				At: float64(issued), End: float64(m.eng.Now()), Flag: m.owner[a.Obj.ID] != p})
			if m.eng.Now() > ts.lastArrive {
				ts.lastArrive = m.eng.Now()
			}
			ts.needed--
			if ts.needed == 0 {
				obsv.Emit(m.Sink, obsv.Event{Kind: obsv.FetchEnd, Proc: p, Task: int(ts.t.ID),
					At: float64(ts.firstReq), End: float64(ts.lastArrive)})
				m.ready(ts)
			}
		})
	}
}

// ready executes the task at the workstation's speed.
func (m *Machine) ready(ts *taskState) {
	p := ts.proc
	work := ts.t.Work / m.cfg.Speeds[p]
	m.stats.TaskMgmtTime += m.cfg.DispatchSec
	m.stats.TaskCount++
	if p == ts.target {
		m.stats.TasksOnTarget++
	}
	m.stats.TaskExecTotal += work
	if segs := ts.t.Segments; len(segs) > 0 && !m.rt.Config().WorkFree {
		// Staged task: segments run back to back on the station; each
		// boundary publishes released writes and enables successors.
		var run func(i int)
		run = func(i int) {
			m.rt.RunSegmentBody(ts.t, i)
			d := segs[i].Work / m.cfg.Speeds[p]
			if i == 0 {
				d += m.cfg.DispatchSec
			}
			m.stations[p].cpu.Submit(m.eng.Now(), sim.Time(d), func(start, end sim.Time) {
				obsv.Emit(m.Sink, obsv.Event{Kind: obsv.Segment, Proc: p, Task: int(ts.t.ID), At: float64(start), End: float64(end)})
				for _, o := range segs[i].Release {
					if a, ok := ts.t.AccessOn(o); ok && a.Writes() {
						m.owner[o.ID] = p
						m.stations[p].store[o.ID] = a.RequiredVersion + 1
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
		return
	}
	m.rt.RunBody(ts.t)
	m.stations[p].cpu.Submit(m.eng.Now(), sim.Time(m.cfg.DispatchSec+work), func(start, end sim.Time) {
		obsv.Emit(m.Sink, obsv.Event{Kind: obsv.Exec, Proc: p, Task: int(ts.t.ID), At: float64(start), End: float64(end)})
		m.completed(ts)
	})
}

// completed updates ownership, notifies main over the bus, and drains
// the pool.
func (m *Machine) completed(ts *taskState) {
	p := ts.proc
	st := m.stations[p]
	for _, a := range ts.t.Accesses {
		if a.Writes() {
			m.owner[a.Obj.ID] = p
			st.store[a.Obj.ID] = a.RequiredVersion + 1
		}
	}
	m.rt.TaskDone(ts.t)
	notify := func() {
		m.stats.TaskMgmtTime += m.cfg.CompleteHandleSec
		m.eng.At(m.submitMgmt(m.eng.Now(), m.cfg.CompleteHandleSec), func() {
			st.load--
			st.queued -= ts.t.Work / m.cfg.Speeds[p]
			m.drainPool(p)
		})
	}
	if p == 0 {
		notify()
		return
	}
	sent := m.bus.Submit(m.eng.Now(), sim.Time(m.cfg.busTime(m.cfg.CompletionBytes)), nil)
	m.eng.At(sent+sim.Time(m.cfg.MsgLatencySec), notify)
}

// drainPool hands pooled tasks to the newly free workstation,
// preferring tasks that target it.
func (m *Machine) drainPool(p int) {
	for m.stations[p].load == 0 && len(m.pool) > 0 {
		pick := 0
		for i, ts := range m.pool {
			if ts.target == p {
				pick = i
				break
			}
		}
		ts := m.pool[pick]
		m.pool = append(m.pool[:pick], m.pool[pick+1:]...)
		m.assign(ts, p)
	}
}
