package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/router"
	"repro/internal/serve"
)

// Requests of a serving slice when it is not the run's own workload:
// enough hot requests for a steady median, and one walk of the cold
// pool.
const (
	hotShortRequests  = 30000
	coldShortRequests = 1370
)

// Length of one half of the tracing-overhead comparison; the run's own
// slice alternates untraced and traced chunks of this length.
const overheadChunkSeconds = 1.0

// execSampleStride picks every n-th cold job for the outside-the-
// server execution that serve.exec_ms_p50 reports.
const execSampleStride = 10

// tracedServing runs a serving workload with a timing decorator around
// each backend. Clients record a span around Router.Do and hand its
// index down as the trace ID; the decorator records the Submit span
// under it.
func tracedServing(e *tracedEnv, name string) error {
	rec := e.recorder(name)
	var on atomic.Bool
	run, err := setupServing(name, e.g, e.cfg.seed, func(b router.Backend) router.Backend {
		return &timedBackend{Backend: b, rec: rec, on: &on}
	})
	if err != nil {
		return err
	}
	defer run.topo.close()

	traced := &instance{clients: servingClients(), op: func(c int) (time.Duration, error) {
		i := run.next(c)
		id := rec.begin(spanRoute, -1, -1)
		d, err := run.pool.ask(run.topo, i, strconv.Itoa(id))
		rec.end(id)
		return d, err
	}}
	untraced := run.instance()

	// The run's own slice alternates untraced and traced chunks, so the
	// two halves of the overhead ratio see the same host; any other
	// slice is traced throughout.
	short := hotShortRequests
	if name == wServeCold {
		short = coldShortRequests
	}
	b := e.budget(name, short)
	var (
		before         runtime.MemStats
		onLat, offLat  []*samples
		chunk          = runConfig{ops: b.ops}
		chunksPerState = 1
	)
	runtime.ReadMemStats(&before)
	if e.home(name) && b.ops == 0 {
		chunk = runConfig{seconds: overheadChunkSeconds}
		chunksPerState = max(int(b.seconds/(2*overheadChunkSeconds)), 1)
	}
	for i := 0; i < chunksPerState; i++ {
		if e.home(name) {
			on.Store(false)
			offLat = append(offLat, drive(untraced, chunk, e.res).lat...)
		}
		on.Store(true)
		onLat = append(onLat, drive(traced, chunk, e.res).lat...)
	}
	on.Store(false)
	mem := memSince(&before)

	var routeSelf, hits, misses, submits []float64
	self := selfTimes(rec.spans)
	for i, s := range rec.spans {
		d := float64(s.End-s.Start) / 1e6
		switch s.Name {
		case spanRoute:
			routeSelf = append(routeSelf, float64(self[i])/1e6)
		case spanHit:
			hits = append(hits, d)
			submits = append(submits, d)
		case spanMiss:
			misses = append(misses, d)
			submits = append(submits, d)
		}
	}
	setPct := func(metric string, vals []float64, p, scale float64) {
		if v, ok := percentile(sortedCopy(vals), p); ok {
			e.set(metric, v*scale)
		}
	}
	c := run.topo.router.Counters()
	m, err := serverMetrics(run.topo.servers)
	if err != nil {
		return err
	}
	if name == wServeHot {
		setPct("router.hop_us_p50", routeSelf, 0.50, 1e3)
		setPct("serve.hit_us_p50", hits, 0.50, 1e3)
		e.set("serve.cache_hit_rate", float64(m.CacheHits)/float64(m.CacheHits+m.CacheMisses))
	} else {
		setPct("serve.miss_ms_p50", misses, 0.50, 1)
		setPct("serve.lat_ms_p99", submits, 0.99, 1)
		e.set("router.hedged_frac", float64(c.Hedged)/float64(c.Routed))
		e.set("router.hedge_win_frac", float64(c.HedgeWins)/float64(c.Routed))
		e.set("router.failovers", float64(c.Failovers))
		e.set("router.load_shifts", float64(c.LoadShifts))
		e.set("serve.deduped", float64(m.JobsDeduped))
		e.set("serve.rejected", float64(m.JobsRejected))
		var exec []float64
		for i := 0; i < len(run.pool.jobs); i += execSampleStride {
			t0 := time.Now()
			out, err := execJob(run.pool.jobs[i])
			exec = append(exec, ms(time.Since(t0)))
			if err == nil {
				err = run.pool.v.check(i, out)
			}
			e.check(err)
		}
		setPct("serve.exec_ms_p50", exec, 0.50, 1)
		if missP50, ok := e.res.Metrics["serve.miss_ms_p50"]; ok {
			e.set("serve.overhead_ms_p50", missP50-e.res.Metrics["serve.exec_ms_p50"])
		}
	}
	if e.home(name) {
		e.setGoMetrics(mem)
		tracedP50, ok1 := percentile(sortedMS(onLat...), 0.50)
		untracedP50, ok2 := percentile(sortedMS(offLat...), 0.50)
		if ok1 && ok2 {
			// A request's time is the router's plus the servers': nothing
			// of a Do span is left unattributed.
			e.setTraceMetrics(tracedP50, untracedP50, 0)
		}
	}
	return nil
}

// serverMetrics scrapes /metricz from each server through its handler
// and adds the counters up.
func serverMetrics(servers []*serve.Server) (serve.Metrics, error) {
	var sum serve.Metrics
	for _, s := range servers {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metricz", nil))
		if w.Code != http.StatusOK {
			return sum, fmt.Errorf("/metricz answered %d", w.Code)
		}
		var m serve.Metrics
		if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
			return sum, fmt.Errorf("/metricz: %w", err)
		}
		sum.CacheHits += m.CacheHits
		sum.CacheMisses += m.CacheMisses
		sum.JobsDeduped += m.JobsDeduped
		sum.JobsRejected += m.JobsRejected
	}
	return sum, nil
}
