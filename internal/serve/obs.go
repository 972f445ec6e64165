package serve

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"time"

	"repro/internal/experiments"
	"repro/internal/obsv"
	"repro/internal/svcobs"
)

// This file is the server side of the request observability plane
// (internal/svcobs): the HTTP middleware that assigns/echoes trace
// IDs, captures lifecycle span trees, and writes structured access
// logs; the jade-span/v1 trace endpoint; and the Prometheus
// text-format rendering of /metricz. With the plane off (a nil logger,
// Spans=false, a zero SLO config) the middleware only echoes the trace
// ID, and the in-process path pays only nil checks.

// reqObs carries one HTTP request's observability state from the
// middleware into the handlers. A nil *reqObs (observability off, or
// a non-HTTP caller) no-ops every method.
type reqObs struct {
	traceID string
	trace   *svcobs.Trace // nil unless span capture is on
	root    *svcobs.Span
	jobID   string // set by handleSubmit for the access log
}

type reqObsKey struct{}

// obsFromContext recovers the request observability state, nil when
// the middleware did not run.
func obsFromContext(ctx context.Context) *reqObs {
	ro, _ := ctx.Value(reqObsKey{}).(*reqObs)
	return ro
}

// span starts a phase span under the request root (nil-safe).
func (ro *reqObs) span(name string) *svcobs.Span {
	if ro == nil {
		return nil
	}
	return ro.root.Child(name)
}

// newReqObs builds the observability state for one request or
// in-process submission. callerID is the caller-supplied trace ID
// (validated; invalid or empty draws a fresh one).
func (s *Server) newReqObs(callerID, rootName string) *reqObs {
	ro := &reqObs{traceID: svcobs.CleanTraceID(callerID)}
	if ro.traceID == "" {
		ro.traceID = svcobs.NewTraceID()
	}
	if s.cfg.Spans {
		ro.trace = svcobs.NewTrace(ro.traceID)
		ro.root = ro.trace.Root(rootName)
	}
	return ro
}

// obsEnabled reports whether an in-process submission needs request
// observability state.
func (s *Server) obsEnabled() bool { return s.logger != nil || s.cfg.Spans }

// statusWriter records the response status code for the access log.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// ServeHTTP implements http.Handler: around the mux it echoes or mints
// the trace ID, roots the span tree, and writes one structured access
// log line per request.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ro := s.newReqObs(svcobs.EchoTrace(w, r), "request")
	ro.root.SetAttr("method", r.Method)
	ro.root.SetAttr("path", r.URL.Path)
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	s.mux.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), reqObsKey{}, ro)))
	ro.root.End()

	if s.logger == nil {
		return
	}
	// Liveness and scrape endpoints log at debug so a tight scrape
	// loop doesn't drown the job lifecycle log.
	level := slog.LevelInfo
	if r.URL.Path == "/healthz" || r.URL.Path == "/metricz" {
		level = slog.LevelDebug
	}
	attrs := []any{
		"trace_id", ro.traceID,
		"method", r.Method,
		"path", r.URL.Path,
		"status", sw.code,
		"dur_sec", time.Since(start).Seconds(),
	}
	if ro.jobID != "" {
		attrs = append(attrs, "job_id", ro.jobID)
	}
	if phases := ro.trace.Doc("").PhaseDurations(); len(phases) > 0 {
		attrs = append(attrs, "phases_sec", phases)
	}
	s.logger.Log(r.Context(), level, "request", attrs...)
}

// attachObs hands the request's trace over to the job it created: the
// job lifecycle (queue wait, execution, finish) keeps growing the same
// span tree, and the trace stays retrievable under the job ID after
// the HTTP response is gone.
func (j *Job) attachObs(ro *reqObs) {
	if ro == nil {
		return
	}
	ro.jobID = j.ID
	j.traceID = ro.traceID
	j.trace = ro.trace
	j.root = ro.root
}

// logJob writes the job-lifecycle log line for a finished job.
func (s *Server) logJob(j *Job, latencySec float64) {
	if s.logger == nil {
		return
	}
	s.mu.Lock()
	status, errCode, errMsg, cacheHit := j.status, j.errCode, j.errMsg, j.cacheHit
	s.mu.Unlock()
	attrs := []any{
		"job_id", j.ID,
		"status", status,
		"cache_hit", cacheHit,
		"latency_sec", latencySec,
		"spec_hash", j.Hash,
	}
	if j.traceID != "" {
		attrs = append(attrs, "trace_id", j.traceID)
	}
	if errMsg != "" {
		attrs = append(attrs, "error_code", errCode, "error", errMsg)
		s.logger.Warn("job finished", attrs...)
		return
	}
	s.logger.Info("job finished", attrs...)
}

// noteBreakerTransition is the breaker's observer: every circuit
// state change becomes one counter increment and one structured log
// line, so closed→open→half-open→closed is reconstructable from
// either /metricz or the log.
func (s *Server) noteBreakerTransition(key, from, to string) {
	s.mu.Lock()
	s.breakerTransitions++
	s.mu.Unlock()
	if s.logger != nil {
		s.logger.Info("breaker transition", "experiment", key, "from", from, "to", to)
	}
}

// ---- trace endpoint ----

// TraceDoc exports a job's span tree as its jade-span/v1 document.
func (s *Server) TraceDoc(id string) (*svcobs.Doc, error) {
	j, ok := s.lookup(id)
	if !ok {
		return nil, fmt.Errorf("unknown job %q", id)
	}
	doc := j.trace.Doc(j.ID)
	if doc == nil {
		return nil, fmt.Errorf("job %q has no trace (span capture is disabled)", id)
	}
	return doc, nil
}

func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	doc, err := s.TraceDoc(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	if r.URL.Query().Get("format") == "perfetto" {
		w.Header().Set("Content-Type", "application/json")
		_ = doc.WritePerfetto(w)
		return
	}
	WriteJSON(w, http.StatusOK, doc)
}

// ---- Prometheus exposition ----

// promContentType is the text exposition format version promcheck and
// Prometheus both accept.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// writeProm renders the same state as the JSON /metricz in Prometheus
// text format. Counters come from one mutex hold (the same snapshot
// discipline as metricsDoc), so a scrape never reads torn counters.
func (s *Server) writeProm(w http.ResponseWriter) {
	s.mu.Lock()
	accepted, completed, failed := s.accepted, s.completed, s.failed
	rejected, deduped, panicked := s.rejected, s.deduped, s.panicked
	transitions := s.breakerTransitions
	busy := s.busy
	latency := make(map[string]obsv.Histogram, len(s.latency))
	for id, h := range s.latency {
		latency[id] = *h // value copy: scrape-stable snapshot
	}
	s.mu.Unlock()
	rc := s.cache.Stats()
	gc := experiments.GraphCacheStats()

	w.Header().Set("Content-Type", promContentType)
	p := svcobs.NewPromWriter(w)
	p.Counter("jaded_jobs_accepted_total", "Jobs admitted (queued or served from cache).", float64(accepted))
	p.Counter("jaded_jobs_completed_total", "Jobs finished successfully.", float64(completed))
	p.Counter("jaded_jobs_failed_total", "Jobs finished in failure (timeouts included).", float64(failed))
	p.Counter("jaded_jobs_rejected_total", "Submissions refused by queue backpressure.", float64(rejected))
	p.Counter("jaded_jobs_deduped_total", "Jobs finished by singleflight onto an identical in-flight job.", float64(deduped))
	p.Counter("jaded_jobs_panicked_total", "Runner panics caught and turned into job failures.", float64(panicked))
	p.Counter("jaded_breaker_transitions_total", "Circuit breaker state transitions.", float64(transitions))
	p.Counter("jaded_result_cache_hits_total", "Result cache hits.", float64(rc.Hits))
	p.Counter("jaded_result_cache_misses_total", "Result cache misses.", float64(rc.Misses))
	p.Counter("jaded_graph_cache_hits_total", "Task-graph cache hits.", float64(gc.Hits))
	p.Counter("jaded_graph_cache_misses_total", "Task-graph cache misses.", float64(gc.Misses))

	p.Gauge("jaded_uptime_seconds", "Process uptime.", time.Since(s.start).Seconds())
	p.Gauge("jaded_queue_depth", "Jobs waiting in the queue.", float64(len(s.queue)))
	p.Gauge("jaded_queue_capacity", "Queue capacity.", float64(cap(s.queue)))
	p.Gauge("jaded_workers", "Configured worker count.", float64(s.cfg.Workers))
	p.Gauge("jaded_busy_workers", "Workers executing a job right now.", float64(busy))
	p.Gauge("jaded_result_cache_entries", "Result cache entries.", float64(rc.Len))
	p.Gauge("jaded_graph_cache_entries", "Task-graph cache entries.", float64(gc.Entries))

	if brk := s.breaker.snapshot(); len(brk) > 0 {
		keys := make([]string, 0, len(brk))
		for k := range brk {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			open := 0.0
			if brk[k].State == BreakerOpen {
				open = 1
			}
			p.Gauge("jaded_breaker_open", "1 while the experiment's circuit is open.", open,
				svcobs.Label{Name: "experiment", Value: k})
		}
		for _, k := range keys {
			p.Counter("jaded_breaker_trips_total", "Times the experiment's circuit opened.",
				float64(brk[k].Trips), svcobs.Label{Name: "experiment", Value: k})
		}
	}

	if s.slo != nil {
		st := s.slo.Status()
		p.Gauge("jaded_slo_burn_rate", "Error-budget burn rate over the rolling window.", st.BurnRate)
		p.Gauge("jaded_slo_budget_remaining", "Fraction of the error budget left.", st.BudgetRemaining)
		p.Gauge("jaded_slo_availability", "Availability over the rolling window.", st.Availability)
		p.Gauge("jaded_slo_p99_seconds", "p99 job latency over the rolling window.", st.P99Sec)
		exhausted := 0.0
		if st.Exhausted {
			exhausted = 1
		}
		p.Gauge("jaded_slo_budget_exhausted", "1 while the availability error budget is spent.", exhausted)
	}

	// One histogram family, labelled by experiment ID (plus the "_job"
	// aggregate), rendered as cumulative _bucket/_sum/_count series.
	ids := make([]string, 0, len(latency))
	for id := range latency {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		h := latency[id]
		p.Histogram("jaded_job_latency_seconds", "Executed-job wall latency by experiment.",
			&h, svcobs.Label{Name: "experiment", Value: id})
	}
}
