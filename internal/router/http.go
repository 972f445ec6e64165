package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/serve"
	"repro/internal/svcobs"
)

// Schema tags for the router's own response documents.
const (
	// MetricsSchema tags the router's GET /metricz response.
	MetricsSchema = "jaderouter-metrics/v1"
	// HealthSchema tags the router's GET /healthz response.
	HealthSchema = "jaderouter-health/v1"
)

// Headers the router adds to relayed responses.
const (
	// BackendHeader names the backend that served the request.
	BackendHeader = "X-Jade-Backend"
	// StaleHeader marks a degraded-mode response served from the
	// router's stale cache ("true") after every replica failed.
	StaleHeader = "X-Jade-Stale"
	// HedgedHeader reports that a hedge attempt launched ("true");
	// combined with BackendHeader it shows who won.
	HedgedHeader = "X-Jade-Hedged"
)

// RouterHealth is the router's GET /healthz response.
type RouterHealth struct {
	Schema string `json:"schema"`
	// Status is "ok" when every backend is routable, "degraded" when
	// some are not, "down" (with HTTP 503) when none are.
	Status   string                  `json:"status"`
	Backends map[string]HealthStatus `json:"backends"`
}

// BackendMetrics is one backend's entry in the router's /metricz.
type BackendMetrics struct {
	State    string  `json:"state"`
	Inflight int     `json:"inflight"`
	P95Sec   float64 `json:"p95_sec"`
	Samples  int     `json:"latency_samples"`
}

// RouterMetrics is the router's GET /metricz response.
type RouterMetrics struct {
	Schema   string                    `json:"schema"`
	Uptime   float64                   `json:"uptime_sec"`
	Counters Counters                  `json:"counters"`
	Backends map[string]BackendMetrics `json:"backends"`
	// StaleEntries is the current stale-cache population.
	StaleEntries int `json:"stale_entries"`
}

// Handler wraps a Router with its HTTP API:
//
//	POST /v1/jobs            submit (?sync=1 blocks); mirrors jaded's API
//	                         (without ?sync=1: 202 and a router job ID)
//	GET  /v1/jobs/{id}       async status poll, answered by the router
//	GET  /v1/experiments     jade-catalog/v1 (served locally)
//	GET  /healthz            jaderouter-health/v1 backend states
//	GET  /metricz            jaderouter-metrics/v1 (?format=prom)
//	GET  /v1/traces/{id}     jade-span/v1 route trace (when Spans on)
type Handler struct {
	rt    *Router
	mux   *http.ServeMux
	start time.Time
}

// NewHandler builds the HTTP surface over rt.
func NewHandler(rt *Router) *Handler {
	h := &Handler{rt: rt, mux: http.NewServeMux(), start: time.Now()}
	h.mux.HandleFunc("POST /v1/jobs", h.handleSubmit)
	h.mux.HandleFunc("GET /v1/jobs/{id}", h.handleStatus)
	h.mux.HandleFunc("GET /v1/experiments", h.handleCatalog)
	h.mux.HandleFunc("GET /healthz", h.handleHealth)
	h.mux.HandleFunc("GET /metricz", h.handleMetrics)
	h.mux.HandleFunc("GET /v1/traces/{id}", h.handleTrace)
	return h
}

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

func (h *Handler) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec serve.JobSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&spec); err != nil {
		serve.WriteError(w, http.StatusBadRequest, "invalid job spec JSON: "+err.Error())
		return
	}
	if err := spec.Canonicalize(); err != nil {
		serve.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	sync := r.URL.Query().Get("sync") == "1"
	traceID := svcobs.CleanTraceID(r.Header.Get(svcobs.TraceHeader))
	if traceID == "" {
		traceID = svcobs.NewTraceID()
	}
	w.Header().Set(svcobs.TraceHeader, traceID)

	res := h.rt.Do(r.Context(), &spec, sync, traceID)
	if res.Hedged {
		w.Header().Set(HedgedHeader, "true")
	}
	if res.Backend != "" {
		w.Header().Set(BackendHeader, res.Backend)
	}
	if res.Stale {
		w.Header().Set(StaleHeader, "true")
	}
	switch {
	case res.Err != nil:
		if res.Code == http.StatusServiceUnavailable || res.Code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", serve.RetryAfter(spec.Hash()))
		}
		serve.WriteError(w, res.Code, res.Err.Error())
	case sync:
		serve.WriteSync(w, res.Doc, serve.RetryAfter(res.Doc.SpecHash))
	default:
		serve.WriteJSON(w, res.Code, res.Doc)
	}
}

func (h *Handler) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	doc, err := h.rt.Status(r.Context(), id)
	if err != nil {
		serve.WriteError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
		return
	}
	serve.WriteJSON(w, http.StatusOK, doc)
}

// handleCatalog serves the experiment catalog locally — it is static
// process-wide state, so no backend round-trip is needed.
func (h *Handler) handleCatalog(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, serve.NewCatalog())
}

func (h *Handler) handleHealth(w http.ResponseWriter, r *http.Request) {
	snap := h.rt.HealthSnapshot()
	routable := 0
	for _, st := range snap {
		if st.State == StateHealthy || st.State == StateDegraded {
			routable++
		}
	}
	doc := RouterHealth{Schema: HealthSchema, Backends: snap}
	switch {
	case routable == len(snap):
		doc.Status = "ok"
	case routable > 0:
		doc.Status = "degraded"
	default:
		doc.Status = "down"
	}
	code := http.StatusOK
	if routable == 0 {
		// Stale serving may still answer cached keys, but a load
		// balancer in front of several routers should prefer one with
		// live backends.
		code = http.StatusServiceUnavailable
	}
	serve.WriteJSON(w, code, doc)
}

func (h *Handler) metricsDoc() RouterMetrics {
	snap := h.rt.HealthSnapshot()
	doc := RouterMetrics{
		Schema:   MetricsSchema,
		Uptime:   time.Since(h.start).Seconds(),
		Counters: h.rt.Counters(),
		Backends: make(map[string]BackendMetrics, len(snap)),
	}
	doc.StaleEntries = h.rt.stale.Len()
	for name, st := range snap {
		bm := BackendMetrics{State: st.State}
		h.rt.mu.Lock()
		bm.Inflight = h.rt.inflight[name]
		w := h.rt.windows[name]
		h.rt.mu.Unlock()
		if w != nil {
			bm.Samples = w.Count()
			if p95, ok := w.Quantile(0.95); ok {
				bm.P95Sec = p95
			}
		}
		doc.Backends[name] = bm
	}
	return doc
}

func (h *Handler) handleMetrics(w http.ResponseWriter, r *http.Request) {
	doc := h.metricsDoc()
	if r.URL.Query().Get("format") != "prom" {
		serve.WriteJSON(w, http.StatusOK, doc)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := svcobs.NewPromWriter(w)
	c := doc.Counters
	p.Counter("jaderouter_routed_total", "Requests dispatched to at least one backend.", float64(c.Routed))
	p.Counter("jaderouter_hedged_total", "Requests that launched a hedge attempt.", float64(c.Hedged))
	p.Counter("jaderouter_hedge_wins_total", "Hedge attempts that answered first.", float64(c.HedgeWins))
	p.Counter("jaderouter_failovers_total", "Requests served by a non-primary backend.", float64(c.Failovers))
	p.Counter("jaderouter_ejections_total", "Backend transitions into the ejected state.", float64(c.Ejections))
	p.Counter("jaderouter_stale_served_total", "Degraded-mode responses from the stale cache.", float64(c.StaleServed))
	p.Counter("jaderouter_unroutable_total", "Requests that found no live replica.", float64(c.Unroutable))
	p.Counter("jaderouter_load_shifts_total", "Bounded-load demotions of an overloaded primary.", float64(c.LoadShifts))
	p.Gauge("jaderouter_stale_entries", "Stale-cache population.", float64(doc.StaleEntries))
	p.Gauge("jaderouter_uptime_seconds", "Router uptime.", doc.Uptime)
	states := []string{StateHealthy, StateDegraded, StateEjected, StateProbing}
	for name, bm := range doc.Backends {
		for _, st := range states {
			v := 0.0
			if bm.State == st {
				v = 1.0
			}
			p.Gauge("jaderouter_backend_state", "Backend health state (1 for the current state).",
				v, svcobs.Label{Name: "backend", Value: name}, svcobs.Label{Name: "state", Value: st})
		}
		p.Gauge("jaderouter_backend_inflight", "Requests in flight to the backend.",
			float64(bm.Inflight), svcobs.Label{Name: "backend", Value: name})
		p.Gauge("jaderouter_backend_p95_seconds", "Rolling p95 request latency to the backend.",
			bm.P95Sec, svcobs.Label{Name: "backend", Value: name})
	}
	if err := p.Err(); err != nil {
		// The scrape connection broke mid-write; nothing to recover.
		_ = err
	}
}

func (h *Handler) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	doc, ok := h.rt.Trace(id)
	if !ok {
		serve.WriteError(w, http.StatusNotFound, fmt.Sprintf("no trace %q (spans enabled: %v)", id, h.rt.cfg.Spans))
		return
	}
	serve.WriteJSON(w, http.StatusOK, doc)
}
