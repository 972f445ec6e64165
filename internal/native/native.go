// Package native is a real shared-memory implementation of the Jade
// platform interface: task bodies execute on a pool of goroutines,
// one per (virtual) processor, with the synchronizer enforcing the
// declared data dependences. It is the platform the examples use, and
// it cross-checks that programs written against the Jade API produce
// serial-equivalent results under real concurrency.
package native

import (
	"sync"
	"time"

	"repro/internal/jade"
	"repro/internal/metrics"
)

// Machine runs Jade tasks on worker goroutines.
type Machine struct {
	n  int
	rt *jade.Runtime

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*jade.Task
	pending int
	closed  bool

	start time.Time
	stats metrics.Run
}

var _ jade.Platform = (*Machine)(nil)

// New creates a native machine with workers goroutines. Close must be
// called to release them.
func New(workers int) *Machine {
	if workers < 1 {
		workers = 1
	}
	m := &Machine{n: workers}
	m.cond = sync.NewCond(&m.mu)
	m.stats.Procs = workers
	m.stats.ProcBusy = make([]float64, workers)
	return m
}

// Attach implements jade.Platform and starts the worker pool.
func (m *Machine) Attach(rt *jade.Runtime) {
	m.rt = rt
	m.start = time.Now()
	for i := 0; i < m.n; i++ {
		go m.worker(i)
	}
}

// Processors implements jade.Platform.
func (m *Machine) Processors() int { return m.n }

// ObjectAllocated implements jade.Platform.
func (m *Machine) ObjectAllocated(o *jade.Object) {}

// SerialWork implements jade.Platform; native execution measures real
// time, so modeled work is ignored.
func (m *Machine) SerialWork(d float64) {}

// MainTouches implements jade.Platform; shared memory needs no
// fetches.
func (m *Machine) MainTouches(accs []jade.Access) {}

// TaskCreated implements jade.Platform.
func (m *Machine) TaskCreated(t *jade.Task, enabled bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pending++
	m.stats.TaskCount++
	if enabled {
		m.queue = append(m.queue, t)
		m.cond.Broadcast()
	}
}

// TaskEnabled implements jade.Platform; called from worker goroutines
// as completions release successors.
func (m *Machine) TaskEnabled(t *jade.Task) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queue = append(m.queue, t)
	m.cond.Broadcast()
}

// Drain implements jade.Platform: block until every created task has
// completed.
func (m *Machine) Drain() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.pending > 0 {
		m.cond.Wait()
	}
}

// Stats implements jade.Platform.
func (m *Machine) Stats() *metrics.Run {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.ExecTime = time.Since(m.start).Seconds()
	return &m.stats
}

// ResetStats implements jade.Platform.
func (m *Machine) ResetStats() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats = metrics.Run{Procs: m.n, ProcBusy: make([]float64, m.n)}
	m.start = time.Now()
}

// Close shuts down the worker pool. The machine cannot be reused.
func (m *Machine) Close() {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
}

func (m *Machine) worker(id int) {
	for {
		m.mu.Lock()
		for len(m.queue) == 0 && !m.closed {
			m.cond.Wait()
		}
		if m.closed && len(m.queue) == 0 {
			m.mu.Unlock()
			return
		}
		t := m.queue[0]
		m.queue = m.queue[1:]
		m.mu.Unlock()

		// Completions run under the runtime's lock: the main program
		// creates tasks while workers complete them.
		busyStart := time.Now()
		lock := m.rt.Locker()
		if segs := t.Segments; len(segs) > 0 {
			for i := range segs {
				m.rt.RunSegmentBody(t, i)
				lock.Lock()
				for _, o := range segs[i].Release {
					m.rt.ReleaseEarly(t, o)
				}
				lock.Unlock()
			}
		} else {
			m.rt.RunBody(t)
		}
		lock.Lock()
		m.rt.TaskDone(t)
		lock.Unlock()
		busy := time.Since(busyStart).Seconds()

		m.mu.Lock()
		m.stats.ProcBusy[id] += busy
		m.stats.TaskExecTotal += busy
		m.pending--
		if m.pending == 0 {
			m.cond.Broadcast()
		}
		m.mu.Unlock()
	}
}
