package dash

import (
	"repro/internal/jade"
	"repro/internal/machine"
	"repro/internal/obsv"
	"repro/internal/sim"
)

// writerInfo tracks the last writer of an object for the dirty-line
// cost path (a dirty line in a third cluster costs 132 cycles).
type writerInfo struct {
	proc    int
	version jade.Version
	dirty   bool
}

// Machine is the DASH-style shared-memory platform. It implements
// jade.Platform: a deterministic discrete-event model of the machine
// running the Jade shared-memory implementation (synchronizer +
// scheduler + dispatcher of §3.1–3.2) over the kit's Core.
type Machine struct {
	machine.Core
	cfg Config

	queues []procQueue
	// stealable counts the tasks in every processor's object task
	// queues (Σ count): a processor with an empty queue skips the
	// victim search when it is zero.
	stealable int
	// byObjFlat backs every queue's by-object index (ReserveCapacity).
	byObjFlat []int32
	// global is the NoLocality shared queue of task IDs; globalHead
	// indexes its first live entry so pops reuse the backing array's
	// capacity.
	global     []int32
	globalHead int
	caches     []cache

	running    []bool
	idle       []bool
	dispatchAt []sim.Time // earliest pending dispatch event, or -1
	// dispatchH is the registered dispatch event handler and
	// execDoneCallH the task-completion handler; both take the
	// processor index as their int32 argument, so events on the hot
	// paths stay pointer-free. curTask and curStart are the task each
	// processor's completion reports on and when it started: a
	// processor runs one task at a time, so the handler needs no
	// per-task state.
	dispatchH     sim.Handler
	execDoneCallH sim.Handler
	curTask       []*jade.Task
	curStart      []sim.Time
	// burstH is the wake-burst handler: one event dispatches every
	// processor that one pokeAllIdle woke at now+delay, in processor
	// order. Its argument is a row of bursts, a pointer-free slab of
	// Procs-wide processor lists; burstLen is each row's length and
	// burstFree lists the rows no pending event holds.
	burstH    sim.Handler
	bursts    []int32
	burstLen  []int32
	burstFree []int32

	// lastWriter is indexed by object ID (dense, allocation order). A
	// zero-valued writerInfo (dirty=false) is indistinguishable from
	// "never written", which is exactly the semantics the dirty-line
	// check needs.
	lastWriter []writerInfo

	// StealFromHead flips the steal path to take the first task of
	// the first object task queue (ablation; see DESIGN.md §6).
	StealFromHead bool
}

var _ jade.Platform = (*Machine)(nil)

// New builds a DASH machine from cfg.
func New(cfg Config) *Machine {
	m := &Machine{}
	m.Reset(cfg)
	return m
}

// Reset returns the machine to the state New(cfg) builds, for any
// processor count, keeping the storage of its queues, caches and
// per-object tables; the fault injector, the sink and StealFromHead
// are cleared.
func (m *Machine) Reset(cfg Config) {
	if cfg.Procs < 1 {
		panic("dash: need at least one processor")
	}
	fresh := m.Eng == nil
	m.cfg = cfg
	m.Core.Reset(cfg.Procs, cfg.TaskCreateSec)
	if fresh {
		// Enabled tasks (creation finished, dependences satisfied) go
		// to the scheduling queues.
		m.HandleEnabled(m.enqueue)
		m.register()
	}
	m.queues = machine.Resize(m.queues, cfg.Procs)
	for i := range m.queues {
		m.queues[i].reset()
	}
	m.stealable = 0
	m.global, m.globalHead = m.global[:0], 0
	m.caches = machine.Resize(m.caches, cfg.Procs)
	for i := range m.caches {
		m.caches[i].ready = false
	}
	m.running = machine.Resize(m.running, cfg.Procs)
	m.idle = machine.Resize(m.idle, cfg.Procs)
	m.dispatchAt = machine.Resize(m.dispatchAt, cfg.Procs)
	m.curTask = machine.Resize(m.curTask, cfg.Procs)
	m.curStart = machine.Resize(m.curStart, cfg.Procs)
	for i := 0; i < cfg.Procs; i++ {
		m.running[i], m.idle[i], m.dispatchAt[i] = false, true, -1
		m.curTask[i], m.curStart[i] = nil, 0
	}
	m.bursts, m.burstLen, m.burstFree = m.bursts[:0], m.burstLen[:0], m.burstFree[:0]
	m.lastWriter = m.lastWriter[:0]
	m.StealFromHead = false
}

// register adds the dispatch, wake-burst and completion handlers to a
// new engine.
func (m *Machine) register() {
	m.dispatchH = m.Eng.RegisterHandler(func(v int32) { m.wake(int(v)) })
	m.burstH = m.Eng.RegisterHandler(func(b int32) {
		// A nested burst may grow the slab, so each member is read
		// through it; row b itself is not reused until it is freed.
		row := int(b) * m.cfg.Procs
		for i := 0; i < int(m.burstLen[b]); i++ {
			m.wake(int(m.bursts[row+i]))
		}
		m.burstFree = append(m.burstFree, b)
	})
	m.execDoneCallH = m.Eng.RegisterHandler(func(v int32) {
		p := int(v)
		t := m.curTask[p]
		m.Finished(p, int(t.ID), m.curStart[p], false)
		m.curTask[p] = nil
		m.running[p] = false
		m.RT.TaskDone(t)
		m.dispatch(p)
	})
}

// ReserveCapacity implements the replay capacity hint: size the dense
// per-object and per-task structures for the counts the plan already
// knows, so the run appends without ever growing them.
func (m *Machine) ReserveCapacity(objects, tasks int) {
	m.Core.ReserveCapacity(objects, tasks)
	m.lastWriter = machine.Reserve(m.lastWriter, objects)
	// One backing array for every queue's by-object index: each queue
	// extends within its own fixed-capacity window.
	m.byObjFlat = machine.Reserve(m.byObjFlat, objects*len(m.queues))
	flat := m.byObjFlat[:cap(m.byObjFlat)]
	for i := range m.queues {
		m.queues[i].byObj = flat[i*objects : i*objects : (i+1)*objects]
	}
}

// ObjectAllocated implements jade.Platform. Placement is entirely
// captured by Object.Home; the machine only extends its per-object
// last-writer table.
func (m *Machine) ObjectAllocated(o *jade.Object) {
	m.lastWriter = append(m.lastWriter, writerInfo{})
}

// SerialWork implements jade.Platform.
func (m *Machine) SerialWork(d float64) {
	m.CPUs[0].Submit(m.Eng.Now(), sim.Time(d*m.cfg.SpeedFactor), nil)
}

// MainTouches implements jade.Platform: the main program's own object
// accesses cost memory time on processor 0.
func (m *Machine) MainTouches(accs []jade.Access) {
	var total float64
	for _, a := range accs {
		total += m.accessCost(0, a)
	}
	if total > 0 {
		m.CPUs[0].Submit(m.Eng.Now(), sim.Time(total), nil)
	}
}

// target returns the processor that owns the task's locality object
// (the memory module it is allocated in).
func (m *Machine) target(t *jade.Task) int {
	lobj := t.LocalityObject(m.RT.Config().Locality)
	if lobj == nil {
		return 0
	}
	return lobj.Home
}

// enqueue places an enabled task in the scheduling structures and
// wakes processors. The target processor is woken immediately; other
// idle processors are woken after StealDelaySec, modeling the latency
// of an idle dispatcher noticing remote work. This is what lets a
// stream of enabled tasks reach their target processors before idle
// peers displace them (the paper's Water/String runs execute 100% of
// tasks on target), while sustained imbalance still triggers steals.
func (m *Machine) enqueue(t *jade.Task) {
	m.Enabled(int(t.ID))
	switch {
	case m.cfg.Level == NoLocality:
		m.global = append(m.global, int32(t.ID))
		m.pokeAllIdle(0)
	case m.cfg.Level == TaskPlacement && t.Placed >= 0:
		m.queues[t.Placed].pushPlaced(int32(t.ID))
		m.poke(t.Placed, 0)
	default:
		tgt := m.target(t)
		m.push(tgt, int32(t.ID), t.LocalityObject(m.RT.Config().Locality))
		m.poke(tgt, 0)
		m.pokeAllIdle(sim.Time(m.cfg.StealDelaySec))
	}
}

// wake is a dispatch event's body for processor p. It fires at the
// scheduled time, so Now() is the `at` the event was enqueued with.
func (m *Machine) wake(p int) {
	if m.dispatchAt[p] == m.Eng.Now() {
		m.dispatchAt[p] = -1
	}
	m.dispatch(p)
}

// wakeAt is when a dispatch attempt on processor p after delay should
// fire (no earlier than the processor is free), and false when no
// event is needed: a running processor is dispatched by its completion
// handler, and a poke that cannot beat an already-scheduled one is
// dropped. When it reports true it has recorded the time in dispatchAt.
func (m *Machine) wakeAt(p int, delay sim.Time) (sim.Time, bool) {
	if m.running[p] {
		return 0, false
	}
	at := max(m.Eng.Now()+delay, m.CPUs[p].FreeAt())
	if d := m.dispatchAt[p]; d >= 0 && d <= at {
		return 0, false
	}
	m.dispatchAt[p] = at
	return at, true
}

// poke schedules a dispatch attempt on processor p after delay;
// dispatch itself is idempotent while the processor runs a task.
func (m *Machine) poke(p int, delay sim.Time) {
	if at, ok := m.wakeAt(p, delay); ok {
		m.Eng.AtCall(at, m.dispatchH, int32(p))
	}
}

// pokeAllIdle pokes every idle processor. Those whose attempt comes
// out at exactly now+delay share one burst event; a processor whose
// CPU is free only later keeps an event of its own. The burst is
// exact: the per-processor events it replaces would have had
// consecutive seqs at one time, so nothing could fire between them,
// and whatever they schedule gets a later seq either way.
func (m *Machine) pokeAllIdle(delay sim.Time) {
	burstAt := m.Eng.Now() + delay
	b := int32(-1)
	for p := 0; p < m.cfg.Procs; p++ {
		if !m.idle[p] {
			continue
		}
		at, ok := m.wakeAt(p, delay)
		switch {
		case !ok:
		case at != burstAt:
			m.Eng.AtCall(at, m.dispatchH, int32(p))
		default:
			if b < 0 {
				b = m.newBurst()
				m.Eng.AtCall(at, m.burstH, b)
			}
			m.bursts[int(b)*m.cfg.Procs+int(m.burstLen[b])] = int32(p)
			m.burstLen[b]++
		}
	}
}

// newBurst returns an empty burst row, recycling a freed one.
func (m *Machine) newBurst() int32 {
	if n := len(m.burstFree); n > 0 {
		b := m.burstFree[n-1]
		m.burstFree = m.burstFree[:n-1]
		m.burstLen[b] = 0
		return b
	}
	m.bursts = machine.Resize(m.bursts, len(m.bursts)+m.cfg.Procs)
	m.burstLen = append(m.burstLen, 0)
	return int32(len(m.burstLen) - 1)
}

// push queues task tid on processor p's object task queue for obj.
func (m *Machine) push(p int, tid int32, obj *jade.Object) {
	m.queues[p].push(tid, obj)
	m.stealable++
}

// dispatch gives processor p its next task, or marks it idle.
func (m *Machine) dispatch(p int) {
	if m.running[p] {
		return
	}
	tid, stole := m.next(p)
	if tid == noTask {
		m.idle[p] = true
		return
	}
	m.idle[p] = false
	m.execute(p, m.Tasks[tid], stole)
}

// next removes processor p's next task (§3.2.1): a placed task, else
// the first task of the first object task queue in its own queue, else
// a cyclic search stealing the last task of the last object task queue
// of the first non-empty victim. It reports noTask when there is none
// and whether the task was stolen. The stealable count makes a failed
// search O(1) and lets the search skip empty victims; the victim it
// picks is the one a full scan would.
func (m *Machine) next(p int) (tid int32, stole bool) {
	if m.cfg.Level == NoLocality {
		if m.globalHead == len(m.global) {
			return noTask, false
		}
		tid = m.global[m.globalHead]
		m.globalHead++
		if m.globalHead == len(m.global) {
			m.global = m.global[:0]
			m.globalHead = 0
		}
		return tid, false
	}
	q := &m.queues[p]
	if tid = q.popPlaced(); tid != noTask {
		return tid, false
	}
	if q.count > 0 {
		m.stealable--
		return q.stealFirst(), false
	}
	if m.stealable == 0 {
		return noTask, false
	}
	for i := 1; i < m.cfg.Procs; i++ {
		victim := &m.queues[(p+i)%m.cfg.Procs]
		if victim.count == 0 {
			continue
		}
		m.stealable--
		if m.StealFromHead {
			return victim.stealFirst(), true
		}
		return victim.stealLast(), true
	}
	panic("dash: stealable tasks counted but no queue holds one")
}

// execute runs task t on processor p: dispatch overhead plus memory
// access time for the declared objects plus the scaled compute work.
func (m *Machine) execute(p int, t *jade.Task, stole bool) {
	mgmt := m.cfg.TaskDispatchSec
	if stole {
		mgmt += m.cfg.StealSec
	}

	var app float64
	if !m.RT.Config().WorkFree {
		for _, a := range t.Accesses {
			app += m.accessCost(p, a)
		}
		app += t.Work * m.cfg.SpeedFactor
		app *= m.jitter(t.ID)
	}
	m.Dispatched(p, int(t.ID), m.target(t), stole, mgmt, app)

	m.running[p] = true
	if len(t.Segments) > 0 && !m.RT.Config().WorkFree {
		// Staged task: memory and dispatch costs are charged with the
		// first segment; each segment boundary may release accesses.
		m.executeStaged(p, t, mgmt+app-t.Work*m.cfg.SpeedFactor*m.jitter(t.ID))
		return
	}
	m.RT.RunBody(t)
	// One task runs per processor at a time (the running flag guards
	// dispatch), so the completion handler is interned per processor and
	// reads the task and its start from curTask and curStart instead of
	// capturing them.
	m.curTask[p] = t
	m.curStart[p] = m.CPUs[p].Start(m.Eng.Now())
	m.CPUs[p].SubmitCall(m.Eng.Now(), sim.Time(mgmt+app), m.execDoneCallH, int32(p))
}

// executeStaged runs a multi-synchronization-point task: segments
// execute back to back on the processor; at each segment's completion
// the released objects' successors are enabled immediately.
func (m *Machine) executeStaged(p int, t *jade.Task, baseCost float64) {
	segs := t.Segments
	var run func(i int)
	run = func(i int) {
		m.RT.RunSegmentBody(t, i)
		d := segs[i].Work * m.cfg.SpeedFactor * m.jitter(t.ID)
		if i == 0 {
			d += baseCost
		}
		m.CPUs[p].Submit(m.Eng.Now(), sim.Time(d), func(start, end sim.Time) {
			m.SegmentRan(p, int(t.ID), start, end)
			for _, o := range segs[i].Release {
				m.RT.ReleaseEarly(t, o)
			}
			if i+1 < len(segs) {
				run(i + 1)
				return
			}
			m.running[p] = false
			m.Finished(p, int(t.ID), end, true)
			m.RT.TaskDone(t)
			m.dispatch(p)
		})
	}
	run(0)
}

// jitter returns the deterministic execution-time factor for a task:
// 1 ± JitterPct/2, hashed from the task ID.
func (m *Machine) jitter(id jade.TaskID) float64 {
	if m.cfg.JitterPct == 0 {
		return 1
	}
	h := uint64(id)*0x9e3779b97f4a7c15 + 0x85ebca6b
	h ^= h >> 33
	u := float64(h%1000) / 1000 // [0,1)
	return 1 + m.cfg.JitterPct*(u-0.5)
}

// accessCost returns the memory time for one declared access on
// processor p, updates the cache and dirty-line state, and folds the
// access: a cache hit, or a miss moving a local or remote line.
func (m *Machine) accessCost(p int, a jade.Access) float64 {
	o := a.Obj
	c := &m.caches[p]
	if !c.ready {
		// Caches are emptied on first access so work-free runs — which
		// never cost accesses — don't pay a slot table per processor.
		// The table is sized for every object the run has reserved or
		// allocated so far.
		c.reset(m.cfg.CacheBytes, cap(m.lastWriter))
	}
	resulting := a.RequiredVersion
	if a.Writes() {
		resulting++
	}

	var cycles float64
	class := obsv.LocalLine
	hit := c.has(o, a.RequiredVersion)
	if hit && m.Inj != nil && m.Inj.Invalidate(p) {
		// A transient invalidation storm evicted the line between the
		// previous access and this one: the hit becomes a miss and pays
		// the full memory latency again.
		hit = false
		m.Invalidated()
	}
	switch {
	case hit:
		cycles = m.cfg.CacheHitCycles
		class = obsv.Hit
		c.touch(o)
	default:
		lw := m.lastWriter[o.ID]
		dirtyElsewhere := lw.dirty && lw.version == a.RequiredVersion &&
			m.cfg.cluster(lw.proc) != m.cfg.cluster(p)
		switch {
		case dirtyElsewhere:
			cycles = m.cfg.DirtyRemoteCycles
			class = obsv.RemoteLine
			lw.dirty = false // written back on the forwarding read
			m.lastWriter[o.ID] = lw
		case m.cfg.cluster(o.Home) == m.cfg.cluster(p):
			cycles = m.cfg.LocalMemCycles
		default:
			cycles = m.cfg.RemoteMemCycles
			class = obsv.RemoteLine
		}
	}
	if class == obsv.RemoteLine && m.Inj != nil {
		// Victim clusters sit behind a congested mesh segment: every
		// remote access from them pays the elevated latency factor.
		cycles *= m.Inj.RemoteFactor(m.cfg.cluster(p), m.cfg.clusters())
	}
	cost := m.cfg.lineTime(o.Size, cycles)
	m.Accessed(p, o, class, cost)
	c.insert(o, resulting)
	if a.Writes() {
		m.lastWriter[o.ID] = writerInfo{proc: p, version: resulting, dirty: true}
	}
	return cost
}
