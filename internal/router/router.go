package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro/internal/lru"
	"repro/internal/serve"
	"repro/internal/svcobs"
)

// Config parameterizes a Router. The zero value is usable: defaults
// fill in NewRouter.
type Config struct {
	// HedgeAfter is the hedge delay used before a backend has latency
	// history (default 25ms). Once a backend's rolling window has
	// samples, its p95 replaces this, clamped to [HedgeMin, hedgeMax].
	HedgeAfter time.Duration
	// HedgeMin is the adaptive hedge delay's floor (default 2ms). A
	// hedge costs at most one duplicate run.
	HedgeMin time.Duration

	// RequestTimeout bounds one routed request end to end, hedges and
	// failovers included, and is the job deadline of the front
	// (default 30s).
	RequestTimeout time.Duration

	// Health parameterizes the per-backend health state machine.
	Health HealthConfig

	// Logger receives structured routing events and the front's access
	// and job logs (nil disables).
	Logger *slog.Logger
}

// hedgeMax caps the adaptive hedge delay; staleEntries sizes the
// stale-result cache behind degraded mode; a key's primary is demoted
// behind the next replica when its inflight count reaches loadBound ×
// the mean inflight over the routable backends, plus one (bounded-load
// consistent hashing); and frontWorkers bounds the jobs the front
// routes at once (each holds a worker and up to two backend attempts
// for at most RequestTimeout; past the bound jobs queue, and past the
// queue a submit is refused with 429).
const (
	hedgeMax     = 2 * time.Second
	staleEntries = 512
	loadBound    = 2.0
	frontWorkers = 256
)

func (c *Config) fillDefaults() {
	if c.HedgeAfter <= 0 {
		c.HedgeAfter = 25 * time.Millisecond
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = 2 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	c.Health.fillDefaults()
}

// Counters is the router's monotonic counter snapshot (see /metricz).
type Counters struct {
	// Routed counts requests dispatched to at least one backend.
	Routed int64 `json:"routed"`
	// Hedged counts requests that launched a second (hedge) attempt;
	// HedgeWins counts those where the hedge answered first.
	Hedged    int64 `json:"hedged"`
	HedgeWins int64 `json:"hedge_wins"`
	// Failovers counts requests served by a backend other than their
	// ring primary because the primary was unroutable or failed (hedge
	// wins are not failovers).
	Failovers int64 `json:"failovers"`
	// Ejections counts backend transitions into the ejected state.
	Ejections int64 `json:"ejections"`
	// StaleServed counts degraded-mode responses from the stale cache;
	// Unroutable counts requests that found no live replica at all
	// (whether or not stale data saved them).
	StaleServed int64 `json:"stale_served"`
	Unroutable  int64 `json:"unroutable"`
	// LoadShifts counts bounded-load demotions of an overloaded
	// primary.
	LoadShifts int64 `json:"load_shifts"`
}

// Result is the outcome of one routed request.
type Result struct {
	// Doc is the job status document (nil when Err is set and no stale
	// fallback existed).
	Doc *serve.JobStatus
	// Backend names the backend that answered ("" for stale serves
	// and total failures).
	Backend string
	// Code is 200 with a document; with Err, the backend's client
	// error code, else 503 (400 for an async Do).
	Code int
	// Stale marks a degraded-mode response served from the stale
	// cache after every replica failed.
	Stale bool
	// Hedged / HedgeWin report whether a hedge launched and whether it
	// won.
	Hedged   bool
	HedgeWin bool
	Err      error
}

// Router fronts a fixed set of jaded backends: consistent-hash
// placement, health checking, hedged failover, and stale-serving
// degradation. Its job front (Front) queues jobs and answers polls, so
// a poll never depends on a backend. Create with NewRouter, stop with
// Close.
type Router struct {
	cfg      Config
	ring     *Ring
	backends map[string]Backend
	health   *healthTracker

	stale *lru.Cache[string, []byte] // spec hash → result bytes (degraded mode)

	mu       sync.Mutex
	counters Counters
	inflight map[string]int
	windows  map[string]*rollingWindow

	// ctx is the health checker's; Close cancels it and waits on wg.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewRouter builds a router over the given backends (at least one).
// The ring is a pure function of the backend names, so a restarted
// router maps keys identically.
func NewRouter(cfg Config, backends ...Backend) (*Router, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("router: no backends")
	}
	cfg.fillDefaults()
	names := make([]string, 0, len(backends))
	byName := make(map[string]Backend, len(backends))
	for _, b := range backends {
		if _, dup := byName[b.Name()]; dup {
			return nil, fmt.Errorf("router: duplicate backend name %q", b.Name())
		}
		byName[b.Name()] = b
		names = append(names, b.Name())
	}
	rt := &Router{
		cfg:      cfg,
		ring:     NewRing(DefaultVNodes, names...),
		backends: byName,
		inflight: make(map[string]int, len(names)),
		windows:  make(map[string]*rollingWindow, len(names)),
		stale:    lru.New[string, []byte](staleEntries),
	}
	rt.ctx, rt.cancel = context.WithCancel(context.Background())
	for _, n := range names {
		rt.windows[n] = newRollingWindow()
	}
	rt.health = newHealthTracker(cfg.Health, names)
	rt.health.onTransition = func(backend, from, to string) {
		if to == StateEjected {
			rt.mu.Lock()
			rt.counters.Ejections++
			rt.mu.Unlock()
		}
		if cfg.Logger != nil {
			cfg.Logger.Info("backend health transition",
				"backend", backend, "from", from, "to", to)
		}
	}
	if cfg.Health.ProbeInterval > 0 {
		rt.wg.Add(1)
		go rt.checkLoop()
	}
	return rt, nil
}

// Close stops the background health checker and waits for it.
// Backends and the front are not owned by the router and stay up.
func (rt *Router) Close() {
	rt.cancel()
	rt.wg.Wait()
}

// Front builds the router's job front: a serve.Server whose runner
// routes every job through Do, so jaderouter's job API, job table and
// traces are jaded's own. The front keeps no result cache and no
// breaker (the backends have both), so it routes every job it admits;
// a job's deadline is RequestTimeout. With spans on, a job's trace
// holds its routing attempts under its execute span.
func (rt *Router) Front(spans bool) *serve.Server {
	return serve.New(serve.Config{
		Workers:          frontWorkers,
		CacheEntries:     -1,
		BreakerThreshold: -1,
		JobTimeout:       rt.cfg.RequestTimeout,
		Logger:           rt.cfg.Logger,
		Spans:            spans,
		Run:              rt.run,
	})
}

// run is the front's serve.RunFunc: it routes one job and returns the
// serving backend's terminal document with the routing facts set. A
// 503 from Do (no replica could serve, no stale copy) wraps
// serve.ErrUnavailable, so the job fails as "retry later"; a backend's
// 4xx fails it as the spec's fault.
func (rt *Router) run(ctx context.Context, spec *serve.JobSpec, traceID string) (serve.JobStatus, error) {
	res := rt.Do(ctx, spec, true, traceID)
	if res.Err != nil {
		if res.Code == http.StatusServiceUnavailable {
			return serve.JobStatus{}, fmt.Errorf("%w: %w", serve.ErrUnavailable, res.Err)
		}
		return serve.JobStatus{}, res.Err
	}
	doc := *res.Doc
	doc.Backend, doc.Hedged, doc.Stale = res.Backend, res.Hedged, res.Stale
	return doc, nil
}

// Ring exposes the router's hash ring (read-only).
func (rt *Router) Ring() *Ring { return rt.ring }

// Counters returns a snapshot of the routing counters.
func (rt *Router) Counters() Counters {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.counters
}

// HealthSnapshot exports every backend's health state.
func (rt *Router) HealthSnapshot() map[string]HealthStatus { return rt.health.snapshot() }

// ---- health checking ----

func (rt *Router) checkLoop() {
	defer rt.wg.Done()
	t := time.NewTicker(rt.cfg.Health.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.ctx.Done():
			return
		case <-t.C:
			rt.ProbeNow()
		}
	}
}

// ProbeNow runs one active health-check round synchronously: ejected
// backends past their cooldown move to probing, and every non-ejected
// backend's Healthz is probed under ProbeTimeout. Tests and jadeload
// call it directly for deterministic rounds; the background loop
// (when enabled) calls it on each tick.
func (rt *Router) ProbeNow() {
	names := rt.health.beginProbes()
	var wg sync.WaitGroup
	for _, name := range names {
		b := rt.backends[name]
		if b == nil {
			continue
		}
		wg.Add(1)
		go func(name string, b Backend) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.Health.ProbeTimeout)
			defer cancel()
			err := b.Healthz(ctx)
			rt.health.observe(name, err == nil)
		}(name, b)
	}
	wg.Wait()
}

// ---- routing ----

// cloneSpec deep-copies a canonical spec so concurrent attempts (a
// hedged pair, or many goroutines sharing one template) never hand the
// same *JobSpec to two backends at once — serve re-canonicalizes in
// place, which would race.
func cloneSpec(spec *serve.JobSpec) *serve.JobSpec {
	b, err := json.Marshal(spec)
	if err != nil {
		panic(fmt.Sprintf("router: marshal job spec: %v", err))
	}
	var out serve.JobSpec
	if err := json.Unmarshal(b, &out); err != nil {
		panic(fmt.Sprintf("router: clone job spec: %v", err))
	}
	return &out
}

func (rt *Router) bump(f func(*Counters)) {
	rt.mu.Lock()
	f(&rt.counters)
	rt.mu.Unlock()
}

func (rt *Router) addInflight(name string, d int) {
	rt.mu.Lock()
	rt.inflight[name] += d
	rt.mu.Unlock()
}

// candidates orders the routable backends for a key: the ring
// sequence filtered to routable members, with a bounded-load demotion
// of an overloaded primary. A degraded backend keeps its ring rank on
// purpose — demoting it on the first failure would starve it of the
// traffic whose outcomes decide between recovery (a success resets the
// streak) and ejection (FallThreshold passive failures); hedging
// covers the latency cost of keeping a suspect primary first. The
// second return reports whether the load bound shifted the primary.
func (rt *Router) candidates(key string) ([]string, bool) {
	seq := rt.ring.Sequence(key)
	out := make([]string, 0, len(seq))
	for _, name := range seq {
		if rt.health.routable(name) {
			out = append(out, name)
		}
	}
	shifted := false
	if len(out) > 1 {
		rt.mu.Lock()
		total := 0
		for _, name := range out {
			total += rt.inflight[name]
		}
		mean := float64(total) / float64(len(out))
		bound := loadBound*mean + 1
		if float64(rt.inflight[out[0]]) >= bound && float64(rt.inflight[out[1]]) < bound {
			out[0], out[1] = out[1], out[0]
			shifted = true
		}
		rt.mu.Unlock()
	}
	return out, shifted
}

// hedgeDelay is the adaptive hedge trigger for a backend: its rolling
// p95 when history exists, else the configured default, clamped to
// [HedgeMin, hedgeMax].
func (rt *Router) hedgeDelay(name string) time.Duration {
	d := rt.cfg.HedgeAfter
	rt.mu.Lock()
	w := rt.windows[name]
	rt.mu.Unlock()
	if w != nil {
		if p95, ok := w.Quantile(0.95); ok {
			d = time.Duration(p95 * float64(time.Second))
		}
	}
	if d < rt.cfg.HedgeMin {
		d = rt.cfg.HedgeMin
	}
	if d > hedgeMax {
		d = hedgeMax
	}
	return d
}

// failoverEligible reports whether an attempt error justifies trying
// the next replica: transport errors, 5xx, and capacity refusals do;
// client errors (bad spec, unknown job) would fail identically
// everywhere.
func failoverEligible(err error) bool {
	var be *BackendError
	if !errors.As(err, &be) {
		return true // transport-level or context error
	}
	return be.Code == 0 || be.Code >= 500 || be.Code == http.StatusTooManyRequests
}

// healthPenalty reports whether an attempt error is evidence the
// backend itself is sick (transport failure or 5xx — a 429 means it
// is alive but full).
func healthPenalty(err error) bool {
	var be *BackendError
	if !errors.As(err, &be) {
		return true
	}
	return be.Code == 0 || be.Code >= 500
}

type attemptOutcome struct {
	backend string
	doc     *serve.JobStatus
	err     error
	sec     float64
	isHedge bool
	// hedged reports whether a hedge launched during this attempt
	// (regardless of who won).
	hedged bool
}

// Do routes one canonicalized job spec and returns its terminal status
// document. The spec must already be canonical (Canonicalize called);
// Do never mutates it — each backend attempt gets its own clone. sync
// must be true: async jobs queue at the front, which routes each one
// through here. The attempt spans hang under svcobs.SpanFrom(ctx).
func (rt *Router) Do(ctx context.Context, spec *serve.JobSpec, sync bool, traceID string) *Result {
	if !sync {
		return &Result{Code: http.StatusBadRequest, Err: errors.New("router: Do routes sync requests only; submit async jobs to the front")}
	}
	hash := spec.Hash()
	parent := svcobs.SpanFrom(ctx)
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.RequestTimeout)
	defer cancel()

	cands, shifted := rt.candidates(hash)
	if shifted {
		rt.bump(func(c *Counters) { c.LoadShifts++ })
	}
	primary := rt.ring.Primary(hash)
	if len(cands) == 0 {
		rt.bump(func(c *Counters) { c.Unroutable++ })
		return rt.degrade(hash, parent)
	}

	rt.bump(func(c *Counters) { c.Routed++ })
	res := &Result{}
	var firstErr error
	for i := 0; i < len(cands); i++ {
		target := cands[i]
		var hedge string
		if i+1 < len(cands) {
			hedge = cands[i+1]
		}
		out := rt.attempt(ctx, spec, traceID, target, hedge, parent)
		if out.hedged {
			res.Hedged = true
		}
		if out.err == nil {
			res.Doc, res.Backend = out.doc, out.backend
			res.Code = http.StatusOK
			if out.isHedge {
				res.HedgeWin = true
				rt.bump(func(c *Counters) { c.HedgeWins++ })
			}
			// A request is a failover when someone other than the ring
			// primary served it for availability reasons: the primary was
			// skipped (unroutable or overloaded) or failed earlier in the
			// loop. Hedge wins are latency races, not failovers.
			if out.backend != primary && !out.isHedge {
				rt.bump(func(c *Counters) { c.Failovers++ })
			}
			if out.doc.Status == serve.StatusDone && len(out.doc.Result) > 0 {
				rt.stale.Put(hash, out.doc.Result)
			}
			return res
		}
		if firstErr == nil {
			firstErr = out.err
		}
		if !failoverEligible(out.err) {
			break
		}
		// The failed target was attempted as the hedge's primary next
		// round only if it wasn't already the hedge; either way the loop
		// advances one rank.
	}

	// Every routable replica failed; degrade.
	deg := rt.degrade(hash, parent)
	deg.Hedged = res.Hedged
	if deg.Err != nil {
		deg.Err = firstErr
		var be *BackendError
		if errors.As(firstErr, &be) && be.Code != 0 && be.Code < 500 && be.Code != http.StatusTooManyRequests {
			deg.Code = be.Code
		}
	}
	return deg
}

// attempt runs one primary attempt with an optional hedge to the next
// replica. First success wins and the loser is cancelled. A hedge win
// counts a passive health failure against the primary — that is how a
// hung backend gets ejected without ever returning an error.
func (rt *Router) attempt(ctx context.Context, spec *serve.JobSpec, traceID, primary, hedge string, parent *svcobs.Span) attemptOutcome {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan attemptOutcome, 2)

	launch := func(name string, isHedge bool) {
		span := parent.Child("attempt:" + name)
		if isHedge {
			span.SetAttr("hedge", "true")
		}
		go func() {
			defer span.End()
			rt.addInflight(name, 1)
			defer rt.addInflight(name, -1)
			start := time.Now()
			doc, err := rt.backends[name].Submit(actx, cloneSpec(spec), true, traceID)
			ch <- attemptOutcome{backend: name, doc: doc, err: err, sec: time.Since(start).Seconds(), isHedge: isHedge}
		}()
	}

	launch(primary, false)
	var timerC <-chan time.Time
	var timer *time.Timer
	if hedge != "" && hedge != primary {
		timer = time.NewTimer(rt.hedgeDelay(primary))
		defer timer.Stop()
		timerC = timer.C
	}

	outstanding := 1
	hedged := false
	var firstErr error
	for outstanding > 0 {
		select {
		case <-timerC:
			timerC = nil
			hedged = true
			outstanding++
			rt.bump(func(c *Counters) { c.Hedged++ })
			launch(hedge, true)
		case out := <-ch:
			outstanding--
			if out.err == nil {
				cancel() // first success wins; the loser sees ctx.Canceled
				rt.recordLatency(out.backend, out.sec)
				if out.isHedge {
					// The primary lost the race: soft evidence it is slow
					// or hung. Suspicion alone never ejects — a hung
					// backend's failed health probes (or explicit errors)
					// supply the confirming hard failure.
					rt.health.suspect(primary)
					rt.health.observe(out.backend, true)
				} else {
					rt.health.observe(primary, true)
				}
				out.hedged = hedged
				return out
			}
			if healthPenalty(out.err) {
				rt.health.observe(out.backend, false)
			}
			// Prefer reporting the primary's error over the hedge's.
			if firstErr == nil || !out.isHedge {
				firstErr = out.err
			}
		}
	}
	return attemptOutcome{backend: primary, err: firstErr, hedged: hedged}
}

// degrade is the last resort: serve the stale cached result for the
// key (marked Stale) instead of a 5xx, or fail with 503 when the key
// was never cached.
func (rt *Router) degrade(hash string, parent *svcobs.Span) *Result {
	if data, ok := rt.stale.Get(hash); ok {
		span := parent.Child("stale-serve")
		span.End()
		rt.bump(func(c *Counters) { c.StaleServed++ })
		doc := &serve.JobStatus{
			Schema:   serve.StatusSchema,
			ID:       "stale-" + hash[:12],
			Status:   serve.StatusDone,
			SpecHash: hash,
			CacheHit: true,
			Result:   json.RawMessage(data),
		}
		return &Result{Doc: doc, Code: http.StatusOK, Stale: true}
	}
	return &Result{
		Code: http.StatusServiceUnavailable,
		Err:  fmt.Errorf("router: no live backend for key %s and no stale result cached", hash[:12]),
	}
}

func (rt *Router) recordLatency(name string, sec float64) {
	rt.mu.Lock()
	w := rt.windows[name]
	rt.mu.Unlock()
	if w != nil {
		w.Record(sec)
	}
}
