package serve

import (
	"encoding/json"
	"net/http"

	"repro/internal/experiments"
	"repro/internal/obsv"
	"repro/internal/svcobs"
)

// Schema tags for the response documents. Additions keep the
// versions; renames or removals bump them.
const (
	// StatusSchema tags job-status responses (POST /v1/jobs and GET
	// /v1/jobs/{id}).
	StatusSchema = "jade-job-status/v1"
	// CatalogSchema tags the GET /v1/experiments response.
	CatalogSchema = "jade-catalog/v1"
	// MetricsSchema tags the GET /metricz response.
	MetricsSchema = "jaded-metrics/v1"
)

// Job lifecycle states reported in JobStatus.Status.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// Error codes reported in JobStatus.ErrorCode for failed jobs. A
// timeout or an unavailable runner is a capacity problem (the same
// spec may succeed later); a plain failure is inherent to the spec or
// the runner.
const (
	ErrCodeTimeout     = "timeout"
	ErrCodeUnavailable = "unavailable"
	ErrCodeFailed      = "failed"
)

// JobStatus is the job-status response document. Result carries the
// jadebench/v1 report once the job is done; CacheHit reports whether
// it came from the result cache rather than a fresh run.
type JobStatus struct {
	Schema   string `json:"schema"`
	ID       string `json:"id"`
	Status   string `json:"status"`
	SpecHash string `json:"spec_hash"`
	CacheHit bool   `json:"cache_hit"`
	// TraceID identifies the request trace this job belongs to (the
	// X-Jade-Trace value); empty when span capture is disabled.
	TraceID string `json:"trace_id,omitempty"`
	Error   string `json:"error,omitempty"`
	// ErrorCode classifies a failed job: ErrCodeTimeout means the job
	// deadline expired and ErrCodeUnavailable that no runner could take
	// it (both: retry later), ErrCodeFailed everything else.
	ErrorCode string `json:"error_code,omitempty"`
	// Backend, Hedged and Stale say how jaderouter served a routed job:
	// who answered, whether a hedge launched, whether the result came
	// from its stale cache. The response repeats them as headers.
	Backend string          `json:"backend,omitempty"`
	Hedged  bool            `json:"hedged,omitempty"`
	Stale   bool            `json:"stale,omitempty"`
	Spec    *JobSpec        `json:"spec,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
}

// Headers that repeat a routed job's JobStatus.Backend, Hedged and
// Stale on every status response.
const (
	BackendHeader = "X-Jade-Backend"
	HedgedHeader  = "X-Jade-Hedged"
	StaleHeader   = "X-Jade-Stale"
)

// CatalogEntry is one experiment in the GET /v1/experiments listing.
type CatalogEntry struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

// Catalog is the GET /v1/experiments response.
type Catalog struct {
	Schema      string         `json:"schema"`
	Count       int            `json:"count"`
	Scales      []string       `json:"scales"`
	Experiments []CatalogEntry `json:"experiments"`
}

// Health is the GET /healthz response. Status is "ok", or "degraded"
// (with HTTP 503) when the SLO error budget is exhausted.
type Health struct {
	Status    string            `json:"status"`
	UptimeSec float64           `json:"uptime_sec"`
	SLO       *svcobs.SLOStatus `json:"slo,omitempty"`
}

// Metrics is the GET /metricz response: queue, worker, cache, and
// latency gauges for the serving process.
type Metrics struct {
	Schema            string  `json:"schema"`
	UptimeSec         float64 `json:"uptime_sec"`
	QueueDepth        int     `json:"queue_depth"`
	QueueCapacity     int     `json:"queue_capacity"`
	Workers           int     `json:"workers"`
	BusyWorkers       int     `json:"busy_workers"`
	WorkerUtilization float64 `json:"worker_utilization"`
	JobsAccepted      int64   `json:"jobs_accepted"`
	JobsCompleted     int64   `json:"jobs_completed"`
	JobsFailed        int64   `json:"jobs_failed"`
	JobsRejected      int64   `json:"jobs_rejected"`
	// JobsDeduped counts jobs finished by singleflight: identical to
	// a job already executing, so they shared its result instead of
	// running again.
	JobsDeduped int64 `json:"jobs_deduped"`
	// JobsPanicked counts runner panics caught and turned into job
	// failures (the worker survives them).
	JobsPanicked int64 `json:"jobs_panicked"`
	// BreakerTransitions counts circuit state changes (closed→open,
	// open→half-open, half-open→closed/open) across all experiments.
	BreakerTransitions int64   `json:"breaker_transitions"`
	CacheEntries       int     `json:"cache_entries"`
	CacheHits          uint64  `json:"cache_hits"`
	CacheMisses        uint64  `json:"cache_misses"`
	CacheHitRate       float64 `json:"cache_hit_rate"`
	// GraphCache reports the process-wide task-graph cache shared by
	// every worker: work-free runs replay captured application task
	// graphs instead of rebuilding front-ends (see
	// experiments.GraphCacheStats).
	GraphCache experiments.CacheStats `json:"graph_cache"`
	// ExperimentLatency reports wall-clock job execution latency
	// (seconds) per experiment ID, plus the "_job" aggregate over all
	// executed jobs. Cache hits are excluded — they measure the
	// cache, not the experiment.
	ExperimentLatency map[string]obsv.LatencySummary `json:"experiment_latency_sec"`
	// CircuitBreakers reports the state of every experiment circuit
	// that has recorded at least one failure (absent until then).
	CircuitBreakers map[string]BreakerStatus `json:"circuit_breakers,omitempty"`
	// SLO reports the rolling-window SLO tracker (absent when
	// disabled).
	SLO *svcobs.SLOStatus `json:"slo,omitempty"`
}

// errorBody is the JSON error envelope for non-2xx responses.
type errorBody struct {
	Error string `json:"error"`
}

// WriteJSON writes v as indented JSON with the given status code:
// every jaded and jaderouter response body goes through it.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the client hung up; nothing useful to do
}

// writeError writes the {"error": msg} envelope that answers every
// refused request.
func writeError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, errorBody{Error: msg})
}

// writeStatus answers with a job's status document, repeating a routed
// job's serving facts as headers.
func writeStatus(w http.ResponseWriter, code int, doc *JobStatus) {
	if doc.Backend != "" {
		w.Header().Set(BackendHeader, doc.Backend)
	}
	if doc.Hedged {
		w.Header().Set(HedgedHeader, "true")
	}
	if doc.Stale {
		w.Header().Set(StaleHeader, "true")
	}
	WriteJSON(w, code, doc)
}

// newCatalog builds the GET /v1/experiments document from the
// experiment registry.
func newCatalog() Catalog {
	ids := experiments.IDs()
	cat := Catalog{
		Schema:      CatalogSchema,
		Count:       len(ids),
		Scales:      []string{string(experiments.Small), string(experiments.PaperScale)},
		Experiments: make([]CatalogEntry, 0, len(ids)),
	}
	for _, id := range ids {
		e, err := experiments.Get(id)
		if err != nil {
			continue // unreachable: IDs() only lists registered experiments
		}
		cat.Experiments = append(cat.Experiments, CatalogEntry{ID: e.ID, Title: e.Title})
	}
	return cat
}
