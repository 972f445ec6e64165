package pgas

import (
	"repro/internal/fault"
	"repro/internal/fuse"
	"repro/internal/jade"
	"repro/internal/metrics"
	"repro/internal/obsv"
	"repro/internal/sim"
)

// locale is one PGAS locale: a core, a NIC, and the locale's software
// write-back cache over the global address space. The cache maps
// object IDs (dense) to the version held locally; absent means the
// locale must get the object from its home segment.
type locale struct {
	cpu *sim.Processor
	nic *sim.Processor
	// store[id] is the object version cached at this locale, or
	// absentVersion. The home locale always holds the authoritative
	// copy of its segment's objects.
	store []jade.Version
	load  int
}

// absentVersion marks an object not present in a locale's cache.
const absentVersion jade.Version = -1

// taskState mirrors the scheduler/communicator bookkeeping for one
// task.
type taskState struct {
	t          *jade.Task
	target     int
	proc       int
	needed     int
	firstReq   sim.Time
	lastArrive sim.Time
}

// wbItem is one write-back: a produced object version headed for its
// home segment.
type wbItem struct {
	o *jade.Object
	v jade.Version
}

// Machine is the PGAS platform implementing jade.Platform. One-sided
// remote operations occupy the issuing NIC (and, for the data leg of
// a get, the home NIC) but never a remote CPU; faults degrade them
// through the injector's link and remote-latency hooks. The fabric is
// reliable — there is no drop/retransmit protocol, so message-loss
// faults do not apply here.
type Machine struct {
	cfg Config
	eng *sim.Engine
	rt  *jade.Runtime

	locs []*locale

	pool        []*taskState
	createdDone []sim.Time // dense by task ID

	// Sink, when non-nil, receives the run's simulated-event stream
	// (obsv.Observer, trace.Trace); nil costs nothing.
	Sink obsv.Sink
	// Inj, when non-nil, injects deterministic faults: remote-op
	// latency inflation on victim locales, degraded links, and
	// straggler cores.
	Inj *fault.Injector

	stats    metrics.Run
	execBase sim.Time
	busyBase []float64
}

var _ jade.Platform = (*Machine)(nil)

// New builds a PGAS machine.
func New(cfg Config) *Machine {
	if cfg.Procs < 1 {
		panic("pgas: need at least one locale")
	}
	if cfg.TargetTasks < 1 {
		cfg.TargetTasks = 1
	}
	m := &Machine{cfg: cfg, eng: sim.New()}
	for i := 0; i < cfg.Procs; i++ {
		_ = i
		m.locs = append(m.locs, &locale{
			cpu: sim.NewProcessor(m.eng),
			nic: sim.NewProcessor(m.eng),
		})
	}
	m.stats.Procs = cfg.Procs
	return m
}

// Attach implements jade.Platform.
func (m *Machine) Attach(rt *jade.Runtime) { m.rt = rt }

// Attached reports whether a runtime has ever been bound to the
// machine; graph replay uses it to refuse reused platforms.
func (m *Machine) Attached() bool { return m.rt != nil }

// Processors implements jade.Platform.
func (m *Machine) Processors() int { return m.cfg.Procs }

// ObjectAllocated implements jade.Platform: the object's segment is
// allocated in place at its home locale.
func (m *Machine) ObjectAllocated(o *jade.Object) {
	for _, lc := range m.locs {
		for len(lc.store) <= int(o.ID) {
			lc.store = append(lc.store, absentVersion)
		}
	}
	m.locs[o.Home].store[o.ID] = 0
}

// linkFactor is the injector's link degradation (1 when healthy).
func (m *Machine) linkFactor(from, to int) float64 {
	return m.Inj.LinkFactor(from, to)
}

// latency is the one-way latency of a one-sided operation whose
// remote end is locale `remote`; victim locales answer slower.
func (m *Machine) latency(remote int) sim.Time {
	return sim.Time(m.cfg.RemoteLatencySec * m.Inj.RemoteFactor(remote, m.cfg.Procs))
}

// submitMgmt charges d seconds of task-management work to the main
// locale and emits it as a Mgmt span.
func (m *Machine) submitMgmt(at sim.Time, d float64) sim.Time {
	return m.locs[0].cpu.Submit(at, sim.Time(d), obsv.Span(m.Sink, obsv.Event{Kind: obsv.Mgmt}))
}

// TaskCreated implements jade.Platform.
func (m *Machine) TaskCreated(t *jade.Task, enabled bool) {
	done := m.submitMgmt(m.eng.Now(), m.cfg.TaskCreateSec)
	m.stats.TaskMgmtTime += m.cfg.TaskCreateSec
	for len(m.createdDone) <= int(t.ID) {
		m.createdDone = append(m.createdDone, 0)
	}
	m.createdDone[t.ID] = done
	obsv.Emit(m.Sink, obsv.Event{Kind: obsv.Created, Task: int(t.ID), At: float64(done)})
	if enabled {
		m.eng.At(done, func() { m.schedule(t) })
	}
}

// TaskEnabled implements jade.Platform.
func (m *Machine) TaskEnabled(t *jade.Task) {
	at := m.eng.Now()
	if int(t.ID) < len(m.createdDone) {
		if cd := m.createdDone[t.ID]; cd > at {
			at = cd
		}
	}
	m.eng.At(at, func() { m.schedule(t) })
}

// SerialWork implements jade.Platform.
func (m *Machine) SerialWork(d float64) {
	m.locs[0].cpu.Submit(m.eng.Now(), sim.Time(d*m.cfg.SpeedFactor), nil)
}

// MainTouches implements jade.Platform: serial phases get remote
// objects to the main locale synchronously (batched per home when
// aggregation is on) and write back produced versions.
func (m *Machine) MainTouches(accs []jade.Access) {
	main := m.locs[0]
	var fetch []jade.Access
	for _, a := range accs {
		if !a.Reads() {
			continue
		}
		o := a.Obj
		if main.store[o.ID] == a.RequiredVersion {
			m.stats.LocalBytes += int64(o.Size)
			continue
		}
		if o.Home == 0 {
			main.store[o.ID] = a.RequiredVersion
			m.stats.LocalBytes += int64(o.Size)
			continue
		}
		fetch = append(fetch, a)
	}
	for _, batch := range groupByHome(fetch, accessHome, m.cfg.Aggregation) {
		h := batch[0].Obj.Home
		bytes := 0
		for _, a := range batch {
			bytes += a.Obj.Size
		}
		issued := main.cpu.FreeAt()
		req := main.nic.Submit(issued, sim.Time(m.cfg.occupancy(0)*m.linkFactor(0, h)), nil)
		rep := m.locs[h].nic.Submit(req+m.latency(h), sim.Time(m.cfg.occupancy(bytes)*m.linkFactor(h, 0)), nil)
		arrive := rep + m.latency(h)
		main.cpu.Advance(arrive)
		m.countMsg(len(batch), bytes)
		m.stats.RemoteGets += int64(len(batch))
		m.stats.RemoteBytes += int64(bytes)
		for _, a := range batch {
			main.store[a.Obj.ID] = a.RequiredVersion
			obsv.Emit(m.Sink, obsv.Event{Kind: obsv.Fetch, Obj: int(a.Obj.ID), Name: a.Obj.Name, Bytes: a.Obj.Size,
				At: float64(issued), End: float64(arrive), Flag: true})
		}
		obsv.Emit(m.Sink, obsv.Event{Kind: obsv.FetchEnd, Task: -1, At: float64(issued), End: float64(arrive)})
	}
	var flush []wbItem
	for _, a := range accs {
		if !a.Writes() {
			continue
		}
		o := a.Obj
		v := a.RequiredVersion + 1
		main.store[o.ID] = v
		if o.Home != 0 {
			flush = append(flush, wbItem{o, v})
		}
	}
	m.flushWrites(0, flush)
}

// Drain implements jade.Platform.
func (m *Machine) Drain() {
	end := m.eng.Run()
	m.locs[0].cpu.Advance(end)
}

// Stats implements jade.Platform.
func (m *Machine) Stats() *metrics.Run {
	m.stats.ExecTime = float64(m.locs[0].cpu.FreeAt() - m.execBase)
	m.stats.ProcBusy = m.stats.ProcBusy[:0]
	for i, lc := range m.locs {
		b := float64(lc.cpu.BusyTime())
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
	m.execBase = m.locs[0].cpu.FreeAt()
	m.busyBase = m.busyBase[:0]
	for _, lc := range m.locs {
		m.busyBase = append(m.busyBase, float64(lc.cpu.BusyTime()))
	}
	obsv.Emit(m.Sink, obsv.Event{Kind: obsv.Reset})
}

// schedule assigns an enabled task. The affinity target is the home
// locale of the task's locality object (owner-computes); explicit
// placement overrides it at the TaskPlacement level.
func (m *Machine) schedule(t *jade.Task) {
	target := 0
	if lobj := t.LocalityObject(m.rt.Config().Locality); lobj != nil {
		target = lobj.Home
	}
	if m.cfg.Level == TaskPlacement && t.Placed >= 0 {
		target = t.Placed
	}
	ts := &taskState{t: t, target: target, proc: -1}

	if m.cfg.Level == NoAffinity {
		for i, lc := range m.locs {
			if lc.load < m.cfg.TargetTasks {
				m.assign(ts, i)
				return
			}
		}
		m.pool = append(m.pool, ts)
		return
	}
	// Work follows data: wait for the target locale rather than run
	// remotely — remote execution would turn every access into
	// fine-grained remote traffic.
	if m.locs[target].load < m.cfg.TargetTasks {
		m.assign(ts, target)
		return
	}
	m.pool = append(m.pool, ts)
}

// assign sends the task descriptor to its locale.
func (m *Machine) assign(ts *taskState, p int) {
	ts.proc = p
	m.locs[p].load++
	obsv.Emit(m.Sink, obsv.Event{Kind: obsv.Assigned, Proc: p, Task: int(ts.t.ID), N: ts.target, At: float64(m.eng.Now())})
	m.stats.TaskMgmtTime += m.cfg.AssignSec
	decided := m.submitMgmt(m.eng.Now(), m.cfg.AssignSec)
	if p == 0 {
		m.eng.At(decided, func() { m.taskArrived(ts) })
		return
	}
	sent := m.locs[0].nic.Submit(decided, sim.Time(m.cfg.occupancy(m.cfg.TaskMsgBytes)*m.linkFactor(0, p)), nil)
	m.eng.At(sent+m.latency(p), func() { m.taskArrived(ts) })
}

// countMsg accounts one wire message carrying ops coalesced remote
// operations and bytes of payload.
func (m *Machine) countMsg(ops, bytes int) {
	m.stats.MsgCount++
	m.stats.MsgBytes += int64(bytes)
	if ops > 1 {
		m.stats.AggregatedMsgs++
		m.stats.AggBenefitBytes += int64((ops - 1) * m.cfg.HeaderBytes)
	}
}

// taskArrived resolves the task's declared reads against the locale's
// cache and segment, then issues one-sided gets for the rest —
// batched per home locale when aggregation is on.
func (m *Machine) taskArrived(ts *taskState) {
	p := ts.proc
	lc := m.locs[p]
	var fetch []jade.Access
	if !m.rt.Config().WorkFree {
		for _, a := range ts.t.Accesses {
			if !a.Reads() {
				continue
			}
			o := a.Obj
			if lc.store[o.ID] == a.RequiredVersion {
				m.stats.LocalBytes += int64(o.Size)
				continue
			}
			if o.Home == p {
				// The locale's own segment: the authoritative copy is
				// already local once predecessors wrote it back.
				lc.store[o.ID] = a.RequiredVersion
				m.stats.LocalBytes += int64(o.Size)
				continue
			}
			fetch = append(fetch, a)
		}
	}
	if len(fetch) == 0 {
		m.ready(ts)
		return
	}
	ts.firstReq = m.eng.Now()
	obsv.Emit(m.Sink, obsv.Event{Kind: obsv.FetchStart, Proc: p, Task: int(ts.t.ID), N: len(fetch), At: float64(ts.firstReq)})
	batches := groupByHome(fetch, accessHome, m.cfg.Aggregation)
	ts.needed = len(batches)
	for _, b := range batches {
		m.get(ts, b)
	}
}

// get issues one one-sided (possibly batched) remote get: the request
// descriptor occupies the issuing NIC, the data leg the home NIC, and
// each leg pays the wire latency.
func (m *Machine) get(ts *taskState, batch []jade.Access) {
	p := ts.proc
	h := batch[0].Obj.Home
	bytes := 0
	for _, a := range batch {
		bytes += a.Obj.Size
	}
	issued := m.eng.Now()
	req := m.locs[p].nic.Submit(issued, sim.Time(m.cfg.occupancy(0)*m.linkFactor(p, h)), nil)
	rep := m.locs[h].nic.Submit(req+m.latency(h), sim.Time(m.cfg.occupancy(bytes)*m.linkFactor(h, p)), nil)
	m.countMsg(len(batch), bytes)
	m.stats.RemoteGets += int64(len(batch))
	m.stats.RemoteBytes += int64(bytes)
	m.eng.At(rep+m.latency(h), func() {
		now := m.eng.Now()
		lat := float64(now - issued)
		for _, a := range batch {
			m.locs[p].store[a.Obj.ID] = a.RequiredVersion
			m.stats.ReplicatedReads++
			m.stats.ObjectLatency += lat
			obsv.Emit(m.Sink, obsv.Event{Kind: obsv.Fetch, Proc: p, Obj: int(a.Obj.ID), Name: a.Obj.Name, Bytes: a.Obj.Size,
				At: float64(issued), End: float64(now), Flag: true})
		}
		if m.eng.Now() > ts.lastArrive {
			ts.lastArrive = m.eng.Now()
		}
		ts.needed--
		if ts.needed == 0 {
			m.stats.TaskLatency += float64(ts.lastArrive - ts.firstReq)
			obsv.Emit(m.Sink, obsv.Event{Kind: obsv.FetchEnd, Proc: p, Task: int(ts.t.ID),
				At: float64(ts.firstReq), End: float64(ts.lastArrive)})
			m.ready(ts)
		}
	})
}

// ready executes the task on its locale's core.
func (m *Machine) ready(ts *taskState) {
	p := ts.proc
	work := ts.t.Work * m.cfg.SpeedFactor * m.Inj.CPUFactor(p)
	m.stats.TaskMgmtTime += m.cfg.DispatchSec
	m.stats.TaskCount++
	if p == ts.target {
		m.stats.TasksOnTarget++
	}
	m.stats.TaskExecTotal += work
	if segs := ts.t.Segments; len(segs) > 0 && !m.rt.Config().WorkFree {
		// Staged task: segments run back to back; each boundary writes
		// released objects back to their homes and enables successors.
		var run func(i int)
		run = func(i int) {
			m.rt.RunSegmentBody(ts.t, i)
			d := segs[i].Work * m.cfg.SpeedFactor * m.Inj.CPUFactor(p)
			if i == 0 {
				d += m.cfg.DispatchSec
			}
			m.locs[p].cpu.Submit(m.eng.Now(), sim.Time(d), func(start, end sim.Time) {
				obsv.Emit(m.Sink, obsv.Event{Kind: obsv.Segment, Proc: p, Task: int(ts.t.ID), At: float64(start), End: float64(end)})
				var flush []wbItem
				for _, o := range segs[i].Release {
					if a, ok := ts.t.AccessOn(o); ok && a.Writes() {
						v := a.RequiredVersion + 1
						m.locs[p].store[o.ID] = v
						if o.Home != p {
							flush = append(flush, wbItem{o, v})
						}
					}
				}
				m.flushWrites(p, flush)
				for _, o := range segs[i].Release {
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
	m.locs[p].cpu.Submit(m.eng.Now(), sim.Time(m.cfg.DispatchSec+work), func(start, end sim.Time) {
		obsv.Emit(m.Sink, obsv.Event{Kind: obsv.Exec, Proc: p, Task: int(ts.t.ID), At: float64(start), End: float64(end)})
		m.completed(ts)
	})
}

// completed writes produced versions back to their home segments
// (release consistency: the puts are asynchronous background traffic)
// and notifies the main locale.
func (m *Machine) completed(ts *taskState) {
	p := ts.proc
	lc := m.locs[p]
	var flush []wbItem
	for _, a := range ts.t.Accesses {
		if !a.Writes() {
			continue
		}
		o := a.Obj
		v := a.RequiredVersion + 1
		if lc.store[o.ID] == v {
			// A staged release already produced and flushed this write.
			continue
		}
		lc.store[o.ID] = v
		if o.Home != p {
			flush = append(flush, wbItem{o, v})
		}
	}
	m.flushWrites(p, flush)
	m.rt.TaskDone(ts.t)
	notify := func() {
		m.stats.TaskMgmtTime += m.cfg.CompleteHandleSec
		m.eng.At(m.submitMgmt(m.eng.Now(), m.cfg.CompleteHandleSec), func() {
			lc.load--
			m.drainPool(p)
		})
	}
	if p == 0 {
		notify()
		return
	}
	sent := m.locs[p].nic.Submit(m.eng.Now(), sim.Time(m.cfg.occupancy(m.cfg.CompletionBytes)*m.linkFactor(p, 0)), nil)
	m.eng.At(sent+m.latency(0), notify)
}

// flushWrites issues one-sided puts carrying the produced versions to
// their home segments, batched per home when aggregation is on. The
// puts occupy the issuing NIC and land asynchronously — completion
// does not wait for them (release consistency); ordering correctness
// comes from the synchronizer, the puts model the wire cost.
func (m *Machine) flushWrites(p int, flush []wbItem) {
	if len(flush) == 0 || m.rt.Config().WorkFree {
		// Work-free runs still need version bookkeeping so later
		// phases resolve, but skip the traffic like task-level gets.
		for _, it := range flush {
			m.locs[it.o.Home].store[it.o.ID] = it.v
		}
		return
	}
	for _, batch := range groupByHome(flush, wbHome, m.cfg.Aggregation) {
		h := batch[0].o.Home
		bytes := 0
		for _, it := range batch {
			bytes += it.o.Size
		}
		sent := m.locs[p].nic.Submit(m.eng.Now(), sim.Time(m.cfg.occupancy(bytes)*m.linkFactor(p, h)), nil)
		m.countMsg(len(batch), bytes)
		m.stats.RemotePuts += int64(len(batch))
		arrive := sent + m.latency(h)
		items := batch
		m.eng.At(arrive, func() {
			for _, it := range items {
				m.locs[h].store[it.o.ID] = it.v
			}
		})
	}
}

// drainPool hands pooled tasks to the newly free locale: any pooled
// task under NoAffinity (FIFO), only tasks targeting it otherwise.
func (m *Machine) drainPool(p int) {
	for m.locs[p].load < m.cfg.TargetTasks && len(m.pool) > 0 {
		pick := -1
		if m.cfg.Level == NoAffinity {
			pick = 0
		} else {
			for i, ts := range m.pool {
				if ts.target == p {
					pick = i
					break
				}
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

// accessHome and wbHome key the aggregation grouping.
func accessHome(a jade.Access) int { return a.Obj.Home }
func wbHome(it wbItem) int         { return it.o.Home }

// groupByHome partitions items into per-home batches via the shared
// destination coalescer (the same mechanism the iPSC model batches
// same-owner fetches with), preserving the first-appearance order of
// homes (deterministic — no map iteration). With aggregation off every
// item is its own singleton batch.
func groupByHome[T any](items []T, home func(T) int, aggregate bool) [][]T {
	return fuse.GroupByDest(items, home, aggregate)
}
