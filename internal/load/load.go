// Package load is the jadeload workload engine: it boots whole
// router+backends topologies in-process, replays a deterministic
// Zipf-distributed request mix against the router's job front (sync
// and async, optional burst arrivals, optional mid-run backend kills),
// and reports latency percentiles, cache behavior, and the router's
// availability counters as a jade-load/v1 document. Running the same workload
// against a 1-node and an N-node topology in one invocation is how
// the distributed tier's claims — bounded hedge latency, failover
// without 5xx, stale serving under total shard loss — get numbers.
package load

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/router"
	"repro/internal/serve"
)

// Kill modes (KillEvent.Mode).
const (
	// KillHang makes the backend accept requests and never answer —
	// the failure hedging exists for.
	KillHang = "hang"
	// KillDown makes the backend fail everything immediately.
	KillDown = "down"
)

// KillEvent takes one backend out mid-run, triggered when the
// dispatcher reaches a request count — not a wall-clock time — so the
// same seed reproduces the same interleaving of load and failure.
type KillEvent struct {
	// AfterRequest fires the kill just before request #N (0-based) is
	// dispatched.
	AfterRequest int `json:"after_request"`
	// Backend names the victim; empty selects the backend that is
	// primary for the hottest key in the request mix (guaranteeing the
	// kill actually intersects traffic).
	Backend string `json:"backend,omitempty"`
	// Mode is KillHang or KillDown.
	Mode string `json:"mode"`
}

// Config describes one workload run.
type Config struct {
	// Backends is the topology size (number of in-process jaded
	// nodes), default 3.
	Backends int
	// Requests is the total request count (default 200).
	Requests int
	// Concurrency is the number of concurrent client workers
	// (default 8).
	Concurrency int
	// Seed pins the request mix (spec choice, sync/async choice) —
	// same seed, same workload.
	Seed int64
	// BurstSize > 1 releases requests in bursts of this size,
	// burstPause apart, instead of a continuous stream.
	BurstSize int
	// Kills is the backend-kill schedule, applied only when the
	// topology has more than one backend (killing the only node just
	// measures the stale cache).
	Kills []KillEvent
	// Specs is the request population (canonical job specs). Empty
	// selects DefaultSpecs(experiments.Small).
	Specs []*serve.JobSpec
	// Router overrides the router configuration (health probing,
	// hedging); zero values keep router defaults, except
	// RequestTimeout which jadeload defaults to 10s.
	Router router.Config
	// Server overrides the per-backend jaded configuration.
	Server serve.Config
}

// pollInterval is the async status-poll cadence, and burstPause the
// gap between bursts. SyncFraction of the requests submit with ?sync=1
// (the rest submit async and poll to completion), and spec popularity
// is Zipf-distributed with skew ZipfS over the pool; jade-load/v1
// echoes both.
const (
	pollInterval = 2 * time.Millisecond
	burstPause   = 5 * time.Millisecond
	SyncFraction = 0.8
	ZipfS        = 1.2
)

func (c *Config) fillDefaults() error {
	if c.Backends <= 0 {
		c.Backends = 3
	}
	if c.Requests <= 0 {
		c.Requests = 200
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Router.RequestTimeout <= 0 {
		c.Router.RequestTimeout = 10 * time.Second
	}
	for _, k := range c.Kills {
		if k.Mode != KillHang && k.Mode != KillDown {
			return fmt.Errorf("load: unknown kill mode %q (want %s or %s)", k.Mode, KillHang, KillDown)
		}
	}
	if len(c.Specs) == 0 {
		specs, err := DefaultSpecs(experiments.Small)
		if err != nil {
			return err
		}
		c.Specs = specs
	}
	return nil
}

// DefaultSpecs is the standard request population: every registered
// experiment as a single-experiment job, plus each of the engine's
// DefaultRunSpecs as an explicit one-run job — the same mix jadebench
// executes, sliced into separately cacheable keys.
func DefaultSpecs(scale experiments.Scale) ([]*serve.JobSpec, error) {
	var specs []*serve.JobSpec
	for _, id := range experiments.IDs() {
		specs = append(specs, &serve.JobSpec{Scale: string(scale), Experiments: []string{id}})
	}
	for _, rs := range experiments.DefaultRunSpecs() {
		rs.Observe = false // observer output is bulky and irrelevant to routing
		specs = append(specs, &serve.JobSpec{Scale: string(scale), Runs: []experiments.RunSpec{rs}})
	}
	for _, s := range specs {
		if err := s.Canonicalize(); err != nil {
			return nil, fmt.Errorf("load: default spec: %v", err)
		}
	}
	return specs, nil
}

// ExperimentSpecs builds a request population from explicit
// experiment IDs (the ci smoke uses a small, fast pool).
func ExperimentSpecs(scale experiments.Scale, ids ...string) ([]*serve.JobSpec, error) {
	specs := make([]*serve.JobSpec, 0, len(ids))
	for _, id := range ids {
		s := &serve.JobSpec{Scale: string(scale), Experiments: []string{id}}
		if err := s.Canonicalize(); err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// plan is the precomputed deterministic request schedule.
type plan struct {
	choice []int  // request index → spec pool index
	sync   []bool // request index → sync or async
	hot    int    // most frequent pool index
}

func buildPlan(cfg *Config) *plan {
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, ZipfS, 1, uint64(len(cfg.Specs)-1))
	p := &plan{choice: make([]int, cfg.Requests), sync: make([]bool, cfg.Requests)}
	counts := make([]int, len(cfg.Specs))
	for i := range p.choice {
		var c int
		if len(cfg.Specs) > 1 {
			c = int(zipf.Uint64())
		}
		p.choice[i] = c
		counts[c]++
		p.sync[i] = rng.Float64() < SyncFraction
	}
	for i, n := range counts {
		if n > counts[p.hot] {
			p.hot = i
		}
	}
	return p
}

// topology is one booted router+backends stack and the router's front.
type topology struct {
	rt       *router.Router
	front    *serve.Server
	servers  []*serve.Server
	chaos    map[string]*router.ChaosBackend
	backends []string
}

func bootTopology(cfg *Config, n int) (*topology, error) {
	tp := &topology{chaos: map[string]*router.ChaosBackend{}}
	backends := make([]router.Backend, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("jaded-%d", i)
		srv := serve.New(cfg.Server)
		tp.servers = append(tp.servers, srv)
		cb := router.NewChaosBackend(router.NewLocalBackend(name, srv))
		tp.chaos[name] = cb
		tp.backends = append(tp.backends, name)
		backends = append(backends, cb)
	}
	rt, err := router.NewRouter(cfg.Router, backends...)
	if err != nil {
		tp.shutdown()
		return nil, err
	}
	tp.rt, tp.front = rt, rt.Front(false)
	return tp, nil
}

func (tp *topology) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if tp.rt != nil {
		_ = tp.front.Shutdown(ctx)
		tp.rt.Close()
	}
	for _, s := range tp.servers {
		_ = s.Shutdown(ctx)
	}
}

// kill applies one event to the topology.
func (tp *topology) kill(cfg *Config, p *plan, ev KillEvent) string {
	victim := ev.Backend
	if victim == "" {
		victim = tp.rt.Ring().Primary(cfg.Specs[p.hot].Hash())
	}
	cb := tp.chaos[victim]
	if cb == nil {
		return ""
	}
	switch ev.Mode {
	case KillHang:
		cb.SetMode(router.ChaosHang)
	case KillDown:
		cb.SetMode(router.ChaosDown)
	}
	return victim
}

// Run executes the workload against one topology of cfg.Backends
// nodes and returns its report.
func Run(cfg Config) (*TopologyReport, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	p := buildPlan(&cfg)
	return runTopology(&cfg, p, cfg.Backends)
}

// RunComparison executes the identical workload against a single-node
// topology and the full cfg.Backends topology, and returns the
// combined jade-load/v1 report. Kill events apply only to the
// multi-node topology.
func RunComparison(cfg Config) (*Report, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	p := buildPlan(&cfg)
	sizes := []int{1}
	if cfg.Backends > 1 {
		sizes = append(sizes, cfg.Backends)
	}
	rep := &Report{
		Schema: Schema,
		Workload: Workload{
			Requests:     cfg.Requests,
			Concurrency:  cfg.Concurrency,
			SyncFraction: SyncFraction,
			ZipfS:        ZipfS,
			Seed:         cfg.Seed,
			SpecPool:     len(cfg.Specs),
			BurstSize:    cfg.BurstSize,
			Kills:        cfg.Kills,
		},
	}
	for _, n := range sizes {
		tr, err := runTopology(&cfg, p, n)
		if err != nil {
			return nil, err
		}
		rep.Topologies = append(rep.Topologies, *tr)
	}
	return rep, nil
}

func runTopology(cfg *Config, p *plan, n int) (*TopologyReport, error) {
	tp, err := bootTopology(cfg, n)
	if err != nil {
		return nil, err
	}
	defer tp.shutdown()

	kills := cfg.Kills
	if n <= 1 {
		kills = nil
	}
	killAt := map[int][]KillEvent{}
	for _, ev := range kills {
		killAt[ev.AfterRequest] = append(killAt[ev.AfterRequest], ev)
	}

	type outcome struct {
		sec      float64
		sync     bool
		stale    bool
		hedged   bool
		cacheHit bool
		failed   bool
	}
	results := make([]outcome, cfg.Requests)
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				start := time.Now()
				doc := request(tp.front, cfg, cfg.Specs[p.choice[i]], p.sync[i])
				o := outcome{sync: p.sync[i], failed: doc == nil || doc.Status != serve.StatusDone}
				if doc != nil {
					o.stale, o.hedged, o.cacheHit = doc.Stale, doc.Hedged, doc.CacheHit
				}
				o.sec = time.Since(start).Seconds()
				results[i] = o
			}
		}()
	}

	started := time.Now()
	var killed []string
	for i := 0; i < cfg.Requests; i++ {
		for _, ev := range killAt[i] {
			if v := tp.kill(cfg, p, ev); v != "" {
				killed = append(killed, fmt.Sprintf("%s:%s@%d", v, ev.Mode, i))
			}
		}
		if cfg.BurstSize > 1 && i > 0 && i%cfg.BurstSize == 0 {
			time.Sleep(burstPause)
		}
		work <- i
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(started).Seconds()

	tr := &TopologyReport{
		Backends:   n,
		ElapsedSec: elapsed,
		Throughput: float64(cfg.Requests) / elapsed,
		Killed:     killed,
		Router:     tp.rt.Counters(),
		Health:     map[string]string{},
	}
	for name, st := range tp.rt.HealthSnapshot() {
		tr.Health[name] = st.State
	}
	var latencies []float64
	completed, hits := 0, 0
	for _, o := range results {
		tr.Counts.Total++
		switch {
		case o.failed:
			tr.Counts.Failed++
		case o.stale:
			tr.Counts.Stale++
			completed++
			hits++ // a stale serve is by definition served from cache
		default:
			tr.Counts.OK++
			completed++
			if o.cacheHit {
				hits++
			}
		}
		if o.hedged {
			tr.Counts.Hedged++
		}
		if o.sync && !o.failed {
			latencies = append(latencies, o.sec)
		}
	}
	if completed > 0 {
		tr.CacheHitRate = float64(hits) / float64(completed)
	}
	tr.Latency = summarize(latencies)
	return tr, nil
}

// request submits a copy of spec (Submit canonicalizes in place) to
// the front and returns its terminal document, polling an async job to
// the end; nil when the front refused it or it did not end within the
// router's RequestTimeout.
func request(front *serve.Server, cfg *Config, spec *serve.JobSpec, sync bool) *serve.JobStatus {
	var own serve.JobSpec
	if b, err := json.Marshal(spec); err != nil || json.Unmarshal(b, &own) != nil {
		return nil
	}
	doc, err := front.Submit(context.Background(), &own, sync, "")
	if err != nil {
		return nil
	}
	deadline := time.Now().Add(cfg.Router.RequestTimeout)
	for doc.Status != serve.StatusDone && doc.Status != serve.StatusFailed {
		if time.Now().After(deadline) {
			return nil
		}
		time.Sleep(pollInterval)
		var ok bool
		if doc, ok = front.Status(doc.ID); !ok {
			return nil
		}
	}
	return doc
}

// summarize computes the latency percentile summary (seconds).
func summarize(latencies []float64) Percentiles {
	if len(latencies) == 0 {
		return Percentiles{}
	}
	sort.Float64s(latencies)
	at := func(q float64) float64 {
		idx := int(q * float64(len(latencies)))
		if idx >= len(latencies) {
			idx = len(latencies) - 1
		}
		return latencies[idx]
	}
	sum := 0.0
	for _, v := range latencies {
		sum += v
	}
	return Percentiles{
		Count:   len(latencies),
		MeanSec: sum / float64(len(latencies)),
		P50Sec:  at(0.50),
		P95Sec:  at(0.95),
		P99Sec:  at(0.99),
		P999Sec: at(0.999),
		MaxSec:  latencies[len(latencies)-1],
	}
}
