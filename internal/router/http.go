package router

import (
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

// Handler is jaderouter's HTTP surface: the router's own documents
//
//	GET  /healthz            jaderouter-health/v1 backend states
//	GET  /metricz            jaderouter-metrics/v1 (?format=prom)
//
// beside its job front (Router.Front), which answers every other
// request with jaded's handlers: POST /v1/jobs, GET /v1/jobs/{id},
// GET /v1/jobs/{id}/trace and GET /v1/experiments.
type Handler struct {
	rt    *Router
	mux   *http.ServeMux
	start time.Time
}

// NewHandler builds the HTTP surface over rt and its front.
func NewHandler(rt *Router, front http.Handler) *Handler {
	h := &Handler{rt: rt, mux: http.NewServeMux(), start: time.Now()}
	h.mux.Handle("/", front)
	h.mux.HandleFunc("GET /healthz", h.handleHealth)
	h.mux.HandleFunc("GET /metricz", h.handleMetrics)
	return h
}

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

func (h *Handler) handleHealth(w http.ResponseWriter, r *http.Request) {
	svcobs.EchoTrace(w, r)
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
	svcobs.EchoTrace(w, r)
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
}
