// Package serve turns the experiment engine into a long-running
// simulation-as-a-service: cmd/jaded accepts jade-job/v1 jobs over
// HTTP/JSON, runs them on a bounded worker pool fed by a buffered
// channel with backpressure, and memoizes finished jadebench/v1
// documents in an LRU cache keyed by the canonical spec hash. The
// machine models are deterministic, so a cache hit returns exactly the
// bytes a fresh run would produce — the service amortizes the paper's
// experiment sweeps across requests instead of rebuilding them per
// invocation.
//
// Two further layers cut duplicate and serial work: jobs identical to
// one already executing are single-flighted onto it (one simulation,
// shared result), and the distinct runs inside a single job execute
// once each, fanned out across the server's experiment runner (Config.
// RunParallelism), so one large job can use the whole machine.
//
// The job contract is this package's alone: jaderouter is a Server
// whose Config.Run routes each job through its ring.
//
// The serving path is itself observable (internal/svcobs): every
// request gets a trace ID (accepted from / echoed in X-Jade-Trace),
// every job grows a lifecycle span tree retrievable as jade-span/v1
// or Perfetto JSON, structured logs correlate on the trace ID, and
// /metricz renders as JSON or Prometheus text. A rolling SLO tracker
// degrades /healthz to 503 when the availability error budget burns
// out.
//
// API surface:
//
//	POST /v1/jobs            submit a job; ?sync=1 blocks (small scale only)
//	GET  /v1/jobs/{id}       job status + result document when done
//	GET  /v1/jobs/{id}/trace jade-span/v1 span tree (?format=perfetto)
//	GET  /v1/experiments     experiment catalog
//	GET  /healthz            liveness + SLO budget (503 when exhausted)
//	GET  /metricz            queue/worker/cache/latency gauges
//	                         (?format=prom for Prometheus text)
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/lru"
	"repro/internal/obsv"
	"repro/internal/svcobs"
)

// errTimeout marks deadline expiries so finish can report the distinct
// "timeout" error code (and sync submits can answer 504 + Retry-After).
var errTimeout = errors.New("timeout")

// errShutdown fails every job still queued when the server shuts down.
var errShutdown = errors.New("server shut down before the job started")

// Config parameterizes the server.
type Config struct {
	// Workers is the number of concurrent job executors (default 2).
	Workers int
	// QueueCap bounds the job queue; submissions beyond it get HTTP
	// 429 (default 32).
	QueueCap int
	// CacheEntries sizes the LRU result cache; 0 selects the default
	// of 128. Negative disables caching and singleflight, so the server
	// runs every job it admits.
	CacheEntries int
	// JobTimeout fails a job still executing after this long
	// (default 2m).
	JobTimeout time.Duration
	// RunParallelism sets this server's fan-out width for the
	// independent simulation runs inside a single job, so one job can
	// use the whole machine. 0 selects GOMAXPROCS; 1 forces serial
	// execution. Servers in one process keep their own widths.
	RunParallelism int
	// BreakerThreshold trips an experiment's circuit breaker after
	// this many consecutive execution failures (default 5; negative
	// disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped circuit refuses
	// submissions before letting a half-open probe through
	// (default 30s).
	BreakerCooldown time.Duration
	// JobRetention bounds how many terminal (done or failed) jobs stay
	// pollable under their IDs, spans included; the oldest are evicted
	// first. 0 selects the default of 4096, negative keeps none. Queued
	// and running jobs stay pollable whatever the bound.
	JobRetention int
	// Logger receives structured access and job-lifecycle logs
	// (log/slog); nil disables logging entirely.
	Logger *slog.Logger
	// Spans enables per-request lifecycle span capture: every job's
	// trace is retrievable at GET /v1/jobs/{id}/trace as jade-span/v1
	// or Perfetto JSON. Off by default; costs nothing when off.
	Spans bool
	// SLO configures the rolling-window SLO tracker (p99 latency
	// objective, availability error budget). The zero value disables
	// it; when the budget is exhausted /healthz degrades to 503.
	SLO svcobs.SLOConfig
	// Run executes every job in place of the local experiment runner;
	// nil runs jobs on the engine. jaderouter's front routes them.
	Run RunFunc
}

// RunFunc executes one admitted job's canonical spec and returns its
// terminal document. ctx carries the job deadline and, with span
// capture on, the job's execute span (svcobs.SpanFrom); traceID is the
// job's trace ID, "" when it has none. The server keeps the document's
// Result and CacheHit, a failure's Error and ErrorCode (Status
// failed), and Backend, Hedged and Stale; an error fails the job.
type RunFunc func(ctx context.Context, spec *JobSpec, traceID string) (JobStatus, error)

func (c *Config) fillDefaults() {
	if c.Workers < 1 {
		c.Workers = 2
	}
	if c.QueueCap < 1 {
		c.QueueCap = 32
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 128
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 2 * time.Minute
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerThreshold < 0 {
		c.BreakerThreshold = 0
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 30 * time.Second
	}
	if c.JobRetention == 0 {
		c.JobRetention = 4096
	}
}

// Job is one submitted job. Mutable fields are guarded by the
// server's mutex; done closes when the job reaches a terminal state.
type Job struct {
	ID   string
	Hash string
	Spec *JobSpec

	status   string
	cacheHit bool
	hedged   bool
	stale    bool
	backend  string
	result   json.RawMessage
	errMsg   string
	errCode  string
	done     chan struct{}

	// created anchors the job's latency measurement (and the SLO
	// sample) at admission.
	created time.Time

	// ctx carries the job deadline, which starts at submission and
	// covers queue wait plus execution; cancel releases it when the
	// job reaches a terminal state.
	ctx    context.Context
	cancel context.CancelFunc

	// Observability: the request's trace travels with the job so the
	// lifecycle phases (queue wait, execution, finish) land in the same
	// span tree the HTTP middleware rooted. All nil when span capture
	// is off; traceID is kept either way, for the runner and the log.
	traceID   string
	trace     *svcobs.Trace
	root      *svcobs.Span
	spanQueue *svcobs.Span // queue_wait: enqueue → worker pickup
	spanFlw   *svcobs.Span // singleflight_follow: registration → shared finish

	// followers are identical jobs (same canonical hash) that arrived
	// while this one was executing; singleflight finishes them with
	// this job's result instead of re-running the simulation.
	followers []*Job
}

// Server is the jaded HTTP handler plus its worker pool. Create with
// New, serve it with net/http, and stop it with Shutdown.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	queue  chan *Job                  // admitted jobs, FIFO; sent and closed only under mu
	cache  *lru.Cache[string, []byte] // spec hash → jadebench/v1 bytes
	start  time.Time
	wg     sync.WaitGroup
	logger *slog.Logger
	slo    *svcobs.SLO

	// runner is this server's experiment fan-out (Config.RunParallelism).
	runner experiments.Runner

	// breaker refuses submissions for experiments that keep failing.
	breaker *breaker

	mu sync.Mutex
	// jobs holds the live (queued or running) jobs; finish moves each
	// into done, the terminal jobs kept pollable under
	// Config.JobRetention. Lookups Peek done, so it evicts oldest-first.
	jobs      map[string]*Job
	done      *lru.Cache[string, *Job]
	inflight  map[string]*Job // singleflight: hash -> executing job
	seq       int
	busy      int
	shutdown  bool
	accepted  int64
	completed int64
	failed    int64
	rejected  int64
	deduped   int64
	panicked  int64
	// breakerTransitions counts circuit state changes (see
	// noteBreakerTransition); monotonic, like every counter above.
	breakerTransitions int64
	latency            map[string]*obsv.Histogram
}

// New creates a server and starts its worker pool.
func New(cfg Config) *Server {
	cfg.fillDefaults()
	s := &Server{
		cfg:      cfg,
		runner:   experiments.NewRunner(cfg.RunParallelism),
		queue:    make(chan *Job, cfg.QueueCap),
		cache:    lru.New[string, []byte](cfg.CacheEntries),
		start:    time.Now(),
		logger:   cfg.Logger,
		slo:      svcobs.NewSLO(cfg.SLO),
		breaker:  newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		jobs:     make(map[string]*Job),
		done:     lru.New[string, *Job](cfg.JobRetention),
		inflight: make(map[string]*Job),
		latency:  make(map[string]*obsv.Histogram),
	}
	if s.cfg.Run == nil {
		s.cfg.Run = s.runJobSpec
	}
	s.breaker.onTransition = s.noteBreakerTransition
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("GET /v1/experiments", s.handleCatalog)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metricz", s.handleMetrics)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// runJobSpec is the local RunFunc: it executes a canonical job spec on
// the server's runner and returns the encoded jadebench/v1 document.
// The engine has no cancellation points mid-simulation, so ctx is
// consulted only by the caller.
func (s *Server) runJobSpec(_ context.Context, spec *JobSpec, _ string) (JobStatus, error) {
	rep, err := s.runner.Report(spec.Experiments, spec.Runs, experiments.Scale(spec.Scale))
	if err != nil {
		return JobStatus{}, err
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return JobStatus{}, err
	}
	return JobStatus{Result: buf.Bytes()}, nil
}

// Shutdown drains the server: the queue closes, jobs still queued
// fail with a clear status, and running jobs are waited for until ctx
// expires. Callers should stop the HTTP listener first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.shutdown {
		s.shutdown = true
		close(s.queue)
	}
	s.mu.Unlock()
	for j := range s.queue {
		s.finish(j, failure(errShutdown))
	}
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ---- worker pool ----

// worker runs queued jobs in submission order until Shutdown closes
// the queue. A job it receives after shutdown began fails like the
// ones Shutdown drains itself.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.mu.Lock()
		down := s.shutdown
		s.mu.Unlock()
		if down {
			s.finish(j, failure(errShutdown))
			continue
		}
		s.execute(j)
	}
}

// execute runs one job with the per-job timeout applied. Identical
// jobs are single-flighted on the canonical spec hash: if the same
// hash is already executing, this job registers as a follower and the
// worker moves on — the leader's completion finishes every follower
// with the shared result, so N concurrent identical submissions cost
// one simulation. Singleflight shares a result like the cache does, so
// it is off with the cache.
func (s *Server) execute(j *Job) {
	j.spanQueue.End()
	// An identical job may have finished while this one queued. A job
	// finished here never executed, so if it held the breaker's
	// half-open probe slot the probe is cancelled rather than resolved.
	if data, ok := s.cache.Peek(j.Hash); ok {
		s.breaker.cancelProbe(breakerKeys(j.Spec))
		s.finish(j, JobStatus{CacheHit: true, Result: data})
		return
	}
	// The job deadline started at submission; a job that spent it all
	// waiting in the queue fails without burning a worker on it.
	if j.ctx.Err() != nil {
		s.breaker.cancelProbe(breakerKeys(j.Spec))
		s.finish(j, failure(fmt.Errorf(
			"%w: the %s job deadline expired while the job was queued", errTimeout, s.cfg.JobTimeout)))
		return
	}
	s.mu.Lock()
	if leader, ok := s.inflight[j.Hash]; ok {
		// spanFlw is assigned before the append: the leader reads it
		// from its follower list as soon as the mutex drops.
		j.spanFlw = j.root.Child("singleflight_follow")
		j.spanFlw.SetAttr("leader", leader.ID)
		leader.followers = append(leader.followers, j)
		s.deduped++
		s.mu.Unlock()
		return
	}
	if s.cfg.CacheEntries > 0 {
		s.inflight[j.Hash] = j
	}
	j.status = StatusRunning
	s.busy++
	s.mu.Unlock()
	started := time.Now()

	execSpan := j.root.Child("execute")
	out := s.runOnce(svcobs.WithSpan(j.ctx, execSpan), j.Spec, j.traceID)
	failed := out.Status == StatusFailed
	if failed {
		execSpan.SetAttr("error", out.Error)
	}
	execSpan.End()
	if !failed {
		s.cache.Put(j.Hash, out.Result)
		s.observe(j, time.Since(started).Seconds())
	}
	if keys := breakerKeys(j.Spec); failed {
		s.breaker.failure(keys)
	} else {
		s.breaker.success(keys)
	}
	s.mu.Lock()
	delete(s.inflight, j.Hash)
	followers := j.followers
	j.followers = nil
	s.busy--
	s.mu.Unlock()
	s.finish(j, out)
	for _, f := range followers {
		f.spanFlw.End()
		shared := out
		if failed {
			shared.Error = "deduplicated onto an identical job that failed: " + out.Error
		} else {
			shared.CacheHit = true
		}
		s.finish(f, shared)
	}
}

// runOnce runs the spec on a fresh goroutine with panic isolation: a
// panicking job fails with a stack-capture error instead of killing
// the worker (or the process). The deadline is enforced here; on
// expiry the simulation goroutine is abandoned and its eventual
// result dropped, since the engine has no mid-run cancellation points.
// Every failure comes back as a failed outcome.
func (s *Server) runOnce(ctx context.Context, spec *JobSpec, traceID string) JobStatus {
	ch := make(chan JobStatus, 1)
	go func() {
		defer func() {
			if rec := recover(); rec != nil {
				s.mu.Lock()
				s.panicked++
				s.mu.Unlock()
				ch <- failure(fmt.Errorf("job panicked: %v\n%s", rec, debug.Stack()))
			}
		}()
		out, err := s.cfg.Run(ctx, spec, traceID)
		if err != nil {
			out = failure(err)
		}
		ch <- out
	}()
	select {
	case out := <-ch:
		return out
	case <-ctx.Done():
		return failure(fmt.Errorf("%w: job exceeded the %s deadline (queue wait included)",
			errTimeout, s.cfg.JobTimeout))
	}
}

// failure is the outcome of a job that ended in err: a deadline expiry
// carries ErrCodeTimeout ("retry later"), anything else ErrCodeFailed.
func failure(err error) JobStatus {
	code := ErrCodeFailed
	if errors.Is(err, errTimeout) {
		code = ErrCodeTimeout
	}
	return JobStatus{Status: StatusFailed, Error: err.Error(), ErrorCode: code}
}

// finish moves a job to its terminal state, failed when out's Status
// says so and done otherwise, and wakes waiters. The terminal state
// also feeds the SLO tracker and the job-lifecycle log, before the
// waiters wake: a sync caller that returns finds its job counted and
// logged.
func (s *Server) finish(j *Job, out JobStatus) {
	fs := j.root.Child("finish")
	s.mu.Lock()
	j.cacheHit, j.backend, j.hedged, j.stale = out.CacheHit, out.Backend, out.Hedged, out.Stale
	ok := out.Status != StatusFailed
	if ok {
		j.status, j.result = StatusDone, out.Result
		s.completed++
	} else {
		j.status, j.errMsg, j.errCode = StatusFailed, out.Error, out.ErrorCode
		s.failed++
	}
	if j.cancel != nil {
		j.cancel()
	}
	delete(s.jobs, j.ID)
	s.done.Put(j.ID, j)
	s.mu.Unlock()
	fs.End()
	latency := time.Since(j.created).Seconds()
	s.slo.Record(latency, ok)
	s.logJob(j, latency)
	close(j.done)
}

// observe records one executed job's wall latency under each
// experiment ID it ran, plus the "_job" aggregate.
func (s *Server) observe(j *Job, sec float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	record := func(key string) {
		h := s.latency[key]
		if h == nil {
			h = &obsv.Histogram{}
			s.latency[key] = h
		}
		h.Record(sec)
	}
	record("_job")
	for _, id := range j.Spec.Experiments {
		record(id)
	}
	if len(j.Spec.Runs) > 0 {
		record("_runs")
	}
}

// ---- admission ----

// admitError is a refused submission, carrying enough for the HTTP
// handler to answer (status, message, optional Retry-After, and
// whether the connection should be dropped after the response).
type admitError struct {
	status     int
	msg        string
	retryAfter time.Duration
	// closeConn asks the handler to emit Connection: close: the server
	// is draining (or shedding), so the client should re-dial a
	// healthier backend instead of reusing this connection.
	closeConn bool
}

func (e *admitError) Error() string { return e.msg }

// AdmitStatus reports the HTTP status a refused submission carried:
// errors returned by Submit/RunSync that stem from admission (queue
// backpressure, open circuit, shutdown) map to their 429/503; any
// other error returns 0. Embedding callers (the router's in-process
// backend) use it to tell backend refusals from spec errors.
func AdmitStatus(err error) int {
	var ae *admitError
	if errors.As(err, &ae) {
		return ae.status
	}
	return 0
}

// jitterRetryAfter spreads a Retry-After hint deterministically over
// [base, base+spread) keyed by the canonical spec hash. Every client
// retrying the same spec gets the same hint (the hint is reproducible,
// like everything else in the service), but different specs land on
// different seconds — so a router bouncing a whole shard's keys off a
// draining or saturated backend doesn't synchronize its retry storm
// onto one instant.
func jitterRetryAfter(base, spread time.Duration, key string) time.Duration {
	if spread <= 0 {
		return base
	}
	h := fnv.New64a()
	_, _ = io.WriteString(h, key)
	return base + time.Duration(h.Sum64()%uint64(spread))
}

// retryBase/retrySpread bound the jittered Retry-After hints on 429
// and 503 refusals: hints land on whole seconds in [1s, 5s).
const (
	retryBase   = time.Second
	retrySpread = 4 * time.Second
)

// refuseDraining builds the refusal for a submission that raced
// graceful shutdown: 503 with a jittered Retry-After (the process
// replacing this one will be up shortly; spread the comebacks) and
// Connection: close so a pooling client — the router, above all —
// re-dials another backend instead of queueing more requests onto a
// dying connection.
func (s *Server) refuseDraining(hash string) *admitError {
	return &admitError{
		status:     http.StatusServiceUnavailable,
		msg:        "server is shutting down",
		retryAfter: jitterRetryAfter(retryBase, retrySpread, hash),
		closeConn:  true,
	}
}

// admit routes a canonical spec into the server: born done from the
// result cache, refused (breaker open, queue full, shutting down), or
// registered and queued. Counters move under the same mutex hold that
// makes the decision, and a job is counted accepted before it can
// possibly complete, so scrapes never see jobs_completed >
// jobs_accepted (and never see a counter move backwards).
func (s *Server) admit(spec *JobSpec, ro *reqObs) (*Job, *admitError) {
	hash := spec.Hash()

	lookup := ro.span("cache_lookup")
	data, hit := s.cache.Get(hash)
	lookup.SetAttr("hit", fmt.Sprint(hit))
	lookup.End()
	if hit {
		// Served from the result cache: the job is born done.
		s.mu.Lock()
		if s.shutdown {
			s.mu.Unlock()
			return nil, s.refuseDraining(hash)
		}
		j := s.registerJobLocked(spec, hash)
		s.accepted++
		s.mu.Unlock()
		j.attachObs(ro)
		s.finish(j, JobStatus{CacheHit: true, Result: data})
		return j, nil
	}

	// Executions are gated by the per-experiment circuit breaker;
	// cached results (above) stay served even while a circuit is open.
	brk := ro.span("breaker")
	wait, key, allowed := s.breaker.allow(breakerKeys(spec))
	brk.End()
	if !allowed {
		ro.span("breaker_reject").SetAttr("experiment", key)
		s.slo.Record(0, false)
		if s.logger != nil {
			s.logger.Warn("job rejected", "reason", "breaker_open", "experiment", key)
		}
		// The cooldown remainder gets per-spec jitter on top so every
		// key gated by one circuit doesn't retry in the same second.
		return nil, &admitError{
			status:     http.StatusServiceUnavailable,
			msg:        fmt.Sprintf("circuit breaker for experiment %q is open after repeated failures; retry later", key),
			retryAfter: jitterRetryAfter(wait, retrySpread, hash),
			closeConn:  true,
		}
	}

	enq := ro.span("enqueue")
	defer enq.End()
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		// The breaker may have just granted this job the half-open
		// probe slot; it will never run, so release the slot.
		s.breaker.cancelProbe(breakerKeys(spec))
		return nil, s.refuseDraining(hash)
	}
	j := s.registerJobLocked(spec, hash)
	// Observability state attaches before the push: once the job is in
	// the queue a worker may touch its spans at any moment.
	j.attachObs(ro)
	j.spanQueue = j.root.Child("queue_wait")
	select {
	case s.queue <- j:
	default:
		delete(s.jobs, j.ID)
		s.rejected++
		s.mu.Unlock()
		if j.cancel != nil {
			j.cancel()
		}
		j.spanQueue.End()
		if ro != nil {
			ro.jobID = "" // the job never existed as far as clients can tell
		}
		s.slo.Record(0, false)
		if s.logger != nil {
			s.logger.Warn("job rejected", "reason", "queue_full", "queue_capacity", cap(s.queue))
		}
		// Never executed: a probe admitted past the breaker releases
		// its half-open slot, and the Retry-After hint is jittered by
		// spec hash so shed load doesn't come back as one wave.
		s.breaker.cancelProbe(breakerKeys(spec))
		return nil, &admitError{
			status:     http.StatusTooManyRequests,
			msg:        fmt.Sprintf("job queue is full (%d queued); retry later", cap(s.queue)),
			retryAfter: jitterRetryAfter(retryBase, retrySpread, hash),
			closeConn:  true,
		}
	}
	// Same critical section as the push: the job cannot reach a
	// terminal state (the worker side takes this mutex) before it is
	// counted accepted, so scrapes never see completed > accepted.
	s.accepted++
	s.mu.Unlock()
	return j, nil
}

// registerJobLocked creates and registers a fresh job. Caller holds
// s.mu and has already refused shutdown.
func (s *Server) registerJobLocked(spec *JobSpec, hash string) *Job {
	s.seq++
	j := &Job{
		ID:      fmt.Sprintf("job-%06d", s.seq),
		Hash:    hash,
		Spec:    spec,
		status:  StatusQueued,
		done:    make(chan struct{}),
		created: time.Now(),
	}
	// The deadline clock starts now: queue wait and execution share
	// the same budget, so a job can't sit queued forever and then
	// still claim a full execution timeout.
	j.ctx, j.cancel = context.WithTimeout(context.Background(), s.cfg.JobTimeout)
	s.jobs[j.ID] = j
	return j
}

// RunSync submits a spec in-process — no HTTP — and blocks until the
// job reaches a terminal state (or ctx expires). The job takes the
// same admission, queue, singleflight, and span-capture path a
// network submission takes; traceID seeds the trace (empty draws a
// fresh ID). jadebench -spans and BenchmarkServeJob measure the
// serving path through this.
func (s *Server) RunSync(ctx context.Context, spec *JobSpec, traceID string) (*JobStatus, error) {
	return s.Submit(ctx, spec, true, traceID)
}

// Submit is the in-process submission path the router's embedded
// backends use: the general form of RunSync. sync blocks for the
// terminal state; async returns the queued status document
// immediately (poll its ID at GET /v1/jobs/{id}). Refusals (queue backpressure,
// open circuit, shutdown) come back as errors classifiable with
// AdmitStatus.
func (s *Server) Submit(ctx context.Context, spec *JobSpec, sync bool, traceID string) (*JobStatus, error) {
	var ro *reqObs
	if s.obsEnabled() {
		ro = s.newReqObs(traceID, "request")
		ro.root.SetAttr("source", "in-process")
		defer ro.root.End()
	}
	if err := canonicalize(spec, ro); err != nil {
		return nil, err
	}
	return s.submit(ctx, spec, sync, ro)
}

// canonicalize validates a submitted spec under the request's
// "validate" span.
func canonicalize(spec *JobSpec, ro *reqObs) error {
	sp := ro.span("validate")
	defer sp.End()
	return spec.Canonicalize()
}

// submit is the one submission path behind POST /v1/jobs and Submit:
// it admits a canonical spec, then returns at once for an async job,
// or waits for a sync job's terminal document. A refusal is an
// *admitError; a sync caller that gives up gets ctx's error, and the
// job keeps running, pollable under its ID.
func (s *Server) submit(ctx context.Context, spec *JobSpec, sync bool, ro *reqObs) (*JobStatus, error) {
	j, aerr := s.admit(spec, ro)
	if aerr != nil {
		return nil, aerr
	}
	if sync {
		select {
		case <-j.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return s.statusDoc(j), nil
}

// Healthy mirrors GET /healthz for embedded callers: false while the
// server is draining or the SLO error budget is exhausted.
func (s *Server) Healthy() bool {
	s.mu.Lock()
	draining := s.shutdown
	s.mu.Unlock()
	if draining {
		return false
	}
	if s.slo != nil {
		if st := s.slo.Status(); st.Exhausted {
			return false
		}
	}
	return true
}

// ---- handlers ----

// maxSpecBytes bounds a job-spec request body.
const maxSpecBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	ro := obsFromContext(r.Context())

	recv := ro.span("receive")
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	err := dec.Decode(&spec)
	recv.End()
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid job spec JSON: "+err.Error())
		return
	}
	if err := canonicalize(&spec, ro); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	sync := r.URL.Query().Get("sync") == "1"
	if sync && spec.Scale != string(experiments.Small) {
		writeError(w, http.StatusBadRequest,
			"?sync=1 is only supported for scale \"small\"; submit paper-scale jobs asynchronously")
		return
	}

	doc, err := s.submit(r.Context(), &spec, sync, ro)
	var aerr *admitError
	switch {
	case errors.As(err, &aerr):
		if aerr.retryAfter > 0 {
			w.Header().Set("Retry-After", retryAfterSecs(aerr.retryAfter))
		}
		if aerr.closeConn {
			w.Header().Set("Connection", "close")
		}
		writeError(w, aerr.status, aerr.msg)
	case err != nil:
		// The client hung up; the job keeps running and stays
		// pollable under its ID.
	case !sync:
		// Accepted, even when the job was born done from the cache.
		writeStatus(w, http.StatusAccepted, doc)
	case doc.ErrorCode == ErrCodeTimeout:
		// A timeout is a capacity problem: the same spec may succeed
		// once a job's deadline has passed. Polls never answer 504.
		w.Header().Set("Retry-After", retryAfterSecs(s.cfg.JobTimeout))
		writeStatus(w, http.StatusGatewayTimeout, doc)
	default:
		// Failures included: the status is in the body.
		writeStatus(w, http.StatusOK, doc)
	}
}

// retryAfterSecs renders a duration as a Retry-After header value
// (whole seconds, minimum 1).
func retryAfterSecs(d time.Duration) string {
	secs := int(d.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprint(secs)
}

// statusDoc snapshots a job into its response document; a done job
// carries its result.
func (s *Server) statusDoc(j *Job) *JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	doc := &JobStatus{
		Schema:    StatusSchema,
		ID:        j.ID,
		Status:    j.status,
		SpecHash:  j.Hash,
		CacheHit:  j.cacheHit,
		TraceID:   j.trace.ID(),
		Error:     j.errMsg,
		ErrorCode: j.errCode,
		Backend:   j.backend,
		Hedged:    j.hedged,
		Stale:     j.stale,
		Spec:      j.Spec,
	}
	if j.status == StatusDone {
		doc.Result = j.result
	}
	return doc
}

// lookup finds a job by ID: live, or terminal and still retained.
func (s *Server) lookup(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j, true
	}
	return s.done.Peek(id)
}

// Status returns a job's status document, as GET /v1/jobs/{id}
// answers it; false when the ID is unknown or no longer retained.
func (s *Server) Status(id string) (*JobStatus, bool) {
	j, ok := s.lookup(id)
	if !ok {
		return nil, false
	}
	return s.statusDoc(j), true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	doc, ok := s.Status(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
		return
	}
	writeStatus(w, http.StatusOK, doc)
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, newCatalog())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := Health{Status: "ok", UptimeSec: time.Since(s.start).Seconds()}
	if s.slo != nil {
		st := s.slo.Status()
		h.SLO = &st
		if st.Exhausted {
			// The availability error budget is spent: the service is
			// still alive but should be taken out of rotation until
			// the window recovers.
			h.Status = "degraded"
			WriteJSON(w, http.StatusServiceUnavailable, h)
			return
		}
	}
	WriteJSON(w, http.StatusOK, h)
}

// metricsDoc snapshots the serving metrics. Every counter the mutex
// guards is read under one hold, so a scrape sees a consistent set
// (never jobs_completed > jobs_accepted); queue, cache, breaker, and
// SLO gauges have their own locks and are point-in-time reads.
func (s *Server) metricsDoc() Metrics {
	rc := s.cache.Stats()
	s.mu.Lock()
	m := Metrics{
		Schema:             MetricsSchema,
		UptimeSec:          time.Since(s.start).Seconds(),
		QueueDepth:         len(s.queue),
		QueueCapacity:      cap(s.queue),
		Workers:            s.cfg.Workers,
		BusyWorkers:        s.busy,
		WorkerUtilization:  float64(s.busy) / float64(s.cfg.Workers),
		JobsAccepted:       s.accepted,
		JobsCompleted:      s.completed,
		JobsFailed:         s.failed,
		JobsRejected:       s.rejected,
		JobsDeduped:        s.deduped,
		JobsPanicked:       s.panicked,
		BreakerTransitions: s.breakerTransitions,
		CacheEntries:       rc.Len,
		CacheHits:          rc.Hits,
		CacheMisses:        rc.Misses,
		GraphCache:         experiments.GraphCacheStats(),
		ExperimentLatency:  make(map[string]obsv.LatencySummary, len(s.latency)),
	}
	if rc.Hits+rc.Misses > 0 {
		m.CacheHitRate = float64(rc.Hits) / float64(rc.Hits+rc.Misses)
	}
	for id, h := range s.latency {
		m.ExperimentLatency[id] = h.Summary()
	}
	s.mu.Unlock()
	m.CircuitBreakers = s.breaker.snapshot()
	if s.slo != nil {
		st := s.slo.Status()
		m.SLO = &st
	}
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		s.writeProm(w)
		return
	}
	WriteJSON(w, http.StatusOK, s.metricsDoc())
}
