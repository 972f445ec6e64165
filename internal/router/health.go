package router

import (
	"sync"
	"time"
)

// Backend health states. The state machine the router runs per
// backend is
//
//	healthy → degraded → ejected → probing → healthy
//	                        ↑         |
//	                        └─ probe fails
//
// healthy and degraded are routable (a degraded backend keeps its
// ring rank so passive outcomes can resolve it either way, with
// hedging covering its latency); ejected and probing are not — their keys
// remap to the next replica on the ring until the backend earns its
// way back with RiseThreshold consecutive probe successes.
const (
	StateHealthy  = "healthy"
	StateDegraded = "degraded"
	StateEjected  = "ejected"
	StateProbing  = "probing"
)

// HealthConfig parameterizes the per-backend health state machine and
// the active prober.
type HealthConfig struct {
	// ProbeInterval is how often the active checker probes every
	// backend's /healthz (default 2s; negative disables the background
	// loop — tests drive ProbeNow instead).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (default 1s).
	ProbeTimeout time.Duration
	// FallThreshold ejects a backend after this many consecutive
	// failures, active probes and passive request outcomes combined
	// (default 3). The first failure already moves healthy → degraded.
	FallThreshold int
	// RiseThreshold is the consecutive probe successes a probing
	// backend needs to return to healthy (default 2).
	RiseThreshold int
	// EjectCooldown is how long an ejected backend sits out before the
	// checker starts probing it again (default 5s).
	EjectCooldown time.Duration
}

func (c *HealthConfig) fillDefaults() {
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.FallThreshold <= 0 {
		c.FallThreshold = 3
	}
	if c.RiseThreshold <= 0 {
		c.RiseThreshold = 2
	}
	if c.EjectCooldown <= 0 {
		c.EjectCooldown = 5 * time.Second
	}
}

// HealthStatus is one backend's exported health entry (/healthz and
// /metricz).
type HealthStatus struct {
	State string `json:"state"`
	// ConsecutiveFails is the current failure streak feeding the fall
	// threshold.
	ConsecutiveFails int `json:"consecutive_fails,omitempty"`
	// Ejections counts entries into the ejected state over the
	// router's lifetime.
	Ejections int64 `json:"ejections,omitempty"`
}

// healthTracker holds the per-backend state machines. Observations
// come from two directions — the active /healthz prober and passive
// request outcomes (a failed or hedged-past attempt is evidence too) —
// and both feed the same streak counters.
type healthTracker struct {
	cfg HealthConfig
	now func() time.Time

	// onTransition observes state changes as (backend, from, to),
	// invoked with mu released.
	onTransition func(backend, from, to string)

	mu      sync.Mutex
	entries map[string]*healthEntry
}

type healthEntry struct {
	state     string
	fails     int // consecutive failures (any source)
	rises     int // consecutive probe successes while probing
	ejectedAt time.Time
	ejections int64
}

func newHealthTracker(cfg HealthConfig, names []string) *healthTracker {
	cfg.fillDefaults()
	t := &healthTracker{
		cfg:     cfg,
		now:     time.Now,
		entries: make(map[string]*healthEntry, len(names)),
	}
	for _, n := range names {
		t.entries[n] = &healthEntry{state: StateHealthy}
	}
	return t
}

type healthTransition struct{ backend, from, to string }

func (t *healthTracker) notify(ts []healthTransition) {
	if t.onTransition == nil {
		return
	}
	for _, tr := range ts {
		t.onTransition(tr.backend, tr.from, tr.to)
	}
}

// observe folds one outcome (probe or request) into a backend's state
// machine.
func (t *healthTracker) observe(name string, ok bool) {
	var ts []healthTransition
	t.mu.Lock()
	e := t.entries[name]
	if e == nil {
		t.mu.Unlock()
		return
	}
	from := e.state
	if ok {
		switch e.state {
		case StateHealthy:
			e.fails = 0
		case StateDegraded:
			e.fails = 0
			e.state = StateHealthy
		case StateProbing:
			e.rises++
			if e.rises >= t.cfg.RiseThreshold {
				e.state = StateHealthy
				e.fails, e.rises = 0, 0
			}
		case StateEjected:
			// A stale completion from before the ejection; ignore.
		}
	} else {
		switch e.state {
		case StateHealthy, StateDegraded:
			e.fails++
			if e.fails >= t.cfg.FallThreshold {
				e.state = StateEjected
				e.ejectedAt = t.now()
				e.ejections++
			} else {
				e.state = StateDegraded
			}
		case StateProbing:
			// One failed probe re-ejects; the cooldown restarts.
			e.state = StateEjected
			e.ejectedAt = t.now()
			e.ejections++
			e.rises = 0
		case StateEjected:
		}
	}
	if e.state != from {
		ts = append(ts, healthTransition{name, from, e.state})
	}
	t.mu.Unlock()
	t.notify(ts)
}

// suspect folds in soft evidence against a backend — a lost hedge
// race. A hedge win proves the replica was faster, not that the
// primary is down (during cache warmup the replica may simply have
// had the key cached), so suspicion degrades the backend and primes
// the failure streak up to one below the fall threshold but never
// ejects by itself; one subsequent hard failure (an explicit error or
// a failed probe) confirms and ejects, while one success clears it.
func (t *healthTracker) suspect(name string) {
	var ts []healthTransition
	t.mu.Lock()
	e := t.entries[name]
	if e == nil {
		t.mu.Unlock()
		return
	}
	if e.state == StateHealthy || e.state == StateDegraded {
		from := e.state
		if e.fails < t.cfg.FallThreshold-1 {
			e.fails++
		}
		e.state = StateDegraded
		if e.state != from {
			ts = append(ts, healthTransition{name, from, e.state})
		}
	}
	t.mu.Unlock()
	t.notify(ts)
}

// routable reports whether requests may be sent to the backend.
func (t *healthTracker) routable(name string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[name]
	return e != nil && (e.state == StateHealthy || e.state == StateDegraded)
}

// beginProbes moves every ejected backend whose cooldown has elapsed
// into probing and returns the set of backends the checker should
// probe this round (probing backends included: they keep getting
// probed until they rise or fall). Routable backends are probed too —
// that is how a quietly sick backend degrades without waiting for a
// request to hit it.
func (t *healthTracker) beginProbes() []string {
	var ts []healthTransition
	t.mu.Lock()
	now := t.now()
	out := make([]string, 0, len(t.entries))
	for name, e := range t.entries {
		if e.state == StateEjected && now.Sub(e.ejectedAt) >= t.cfg.EjectCooldown {
			e.state = StateProbing
			e.rises = 0
			ts = append(ts, healthTransition{name, StateEjected, StateProbing})
		}
		if e.state != StateEjected {
			out = append(out, name)
		}
	}
	t.mu.Unlock()
	t.notify(ts)
	return out
}

// snapshot exports every backend's health entry.
func (t *healthTracker) snapshot() map[string]HealthStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]HealthStatus, len(t.entries))
	for name, e := range t.entries {
		out[name] = HealthStatus{State: e.state, ConsecutiveFails: e.fails, Ejections: e.ejections}
	}
	return out
}
