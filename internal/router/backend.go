package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/svcobs"
)

// Backend is one jaded node as the router sees it: a name (its ring
// identity — stable across restarts so the shard map is too), a
// health probe, and the job API. Two implementations ship: LocalBackend
// embeds a *serve.Server in-process (tests, jadeload topologies), and
// HTTPBackend speaks to a remote jaded over its HTTP API.
type Backend interface {
	Name() string
	// Healthz reports nil when the backend is serving; an error is a
	// health-check failure (including a degraded /healthz 503).
	Healthz(ctx context.Context) error
	// Submit routes one canonical job spec; sync blocks for the
	// terminal status document. The trace ID travels with the request
	// so the backend's span tree correlates with the router's. Do
	// always submits with sync true: async jobs wait at the front.
	Submit(ctx context.Context, spec *serve.JobSpec, sync bool, traceID string) (*serve.JobStatus, error)
}

// BackendError is a failed backend interaction, carrying the HTTP
// status when one exists (0 for transport errors).
type BackendError struct {
	Backend string
	Code    int
	Msg     string
}

func (e *BackendError) Error() string {
	if e.Code != 0 {
		return fmt.Sprintf("backend %s: HTTP %d: %s", e.Backend, e.Code, e.Msg)
	}
	return fmt.Sprintf("backend %s: %s", e.Backend, e.Msg)
}

// ---- in-process backend ----

// LocalBackend embeds a jaded server in the router's process: the
// router's unit tests and jadeload's 1-vs-N topologies run whole
// clusters in one binary with zero network nondeterminism.
type LocalBackend struct {
	name string
	srv  *serve.Server
}

// NewLocalBackend wraps an existing server under the given ring name.
func NewLocalBackend(name string, srv *serve.Server) *LocalBackend {
	return &LocalBackend{name: name, srv: srv}
}

func (b *LocalBackend) Name() string { return b.name }

func (b *LocalBackend) Healthz(ctx context.Context) error {
	if !b.srv.Healthy() {
		return &BackendError{Backend: b.name, Code: http.StatusServiceUnavailable, Msg: "healthz degraded"}
	}
	return nil
}

func (b *LocalBackend) Submit(ctx context.Context, spec *serve.JobSpec, sync bool, traceID string) (*serve.JobStatus, error) {
	doc, err := b.srv.Submit(ctx, spec, sync, traceID)
	if err != nil {
		if code := serve.AdmitStatus(err); code != 0 {
			return nil, &BackendError{Backend: b.name, Code: code, Msg: err.Error()}
		}
		return nil, &BackendError{Backend: b.name, Msg: err.Error()}
	}
	return doc, nil
}

// ---- HTTP backend ----

// HTTPBackend is a jaded node reached over its HTTP API.
type HTTPBackend struct {
	name   string
	base   string // e.g. http://10.0.0.7:8274, no trailing slash
	client *http.Client
}

// NewHTTPBackend creates a client for the jaded at base. The name is
// the backend's ring identity; keep it stable across backend restarts
// (an address works). A nil client uses http.DefaultClient — callers
// running many backends should supply one with sane pooling limits.
func NewHTTPBackend(name, base string, client *http.Client) *HTTPBackend {
	if client == nil {
		client = http.DefaultClient
	}
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	return &HTTPBackend{name: name, base: base, client: client}
}

func (b *HTTPBackend) Name() string { return b.name }

func (b *HTTPBackend) Healthz(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/healthz", nil)
	if err != nil {
		return &BackendError{Backend: b.name, Msg: err.Error()}
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return &BackendError{Backend: b.name, Msg: err.Error()}
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return &BackendError{Backend: b.name, Code: resp.StatusCode, Msg: "healthz not ok"}
	}
	return nil
}

// Submit posts the spec to jaded. jaded serves ?sync=1 only at small
// scale, so a sync submit at any other scale posts async and polls the
// job on this backend until it ends.
func (b *HTTPBackend) Submit(ctx context.Context, spec *serve.JobSpec, sync bool, traceID string) (*serve.JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, &BackendError{Backend: b.name, Msg: "marshal spec: " + err.Error()}
	}
	url := b.base + "/v1/jobs"
	if sync && spec.Scale == string(experiments.Small) {
		url += "?sync=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, &BackendError{Backend: b.name, Msg: err.Error()}
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(svcobs.TraceHeader, traceID)
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, &BackendError{Backend: b.name, Msg: err.Error()}
	}
	doc, err := b.decodeStatus(resp)
	for err == nil && sync && doc.Status != serve.StatusDone && doc.Status != serve.StatusFailed {
		time.Sleep(10 * time.Millisecond)
		doc, err = b.poll(ctx, doc.ID)
	}
	return doc, err
}

// poll reads an async job's status document from this backend.
func (b *HTTPBackend) poll(ctx context.Context, jobID string) (*serve.JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/v1/jobs/"+jobID, nil)
	if err != nil {
		return nil, &BackendError{Backend: b.name, Msg: err.Error()}
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, &BackendError{Backend: b.name, Msg: err.Error()}
	}
	return b.decodeStatus(resp)
}

// decodeStatus turns a jaded response into a status document or a
// BackendError. 504 carries a full status doc (a timed-out job), like
// the 2xx responses.
func (b *HTTPBackend) decodeStatus(resp *http.Response) (*serve.JobStatus, error) {
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, &BackendError{Backend: b.name, Code: resp.StatusCode, Msg: "read body: " + err.Error()}
	}
	if resp.StatusCode >= 400 && resp.StatusCode != http.StatusGatewayTimeout {
		msg := string(data)
		var envelope struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &envelope) == nil && envelope.Error != "" {
			msg = envelope.Error
		}
		return nil, &BackendError{Backend: b.name, Code: resp.StatusCode, Msg: msg}
	}
	var doc serve.JobStatus
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, &BackendError{Backend: b.name, Code: resp.StatusCode, Msg: "decode status doc: " + err.Error()}
	}
	return &doc, nil
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// ---- chaos backend ----

// Chaos modes for ChaosBackend.
const (
	// ChaosPass forwards everything (the default).
	ChaosPass = "pass"
	// ChaosHang accepts requests and never answers (blocks until the
	// caller's context expires) — a node that slowed to a stop. Hedges
	// win against it, then passive failures eject it.
	ChaosHang = "hang"
	// ChaosDown fails every call immediately — a dead node.
	ChaosDown = "down"
)

// ChaosBackend wraps a Backend with a switchable failure mode; the
// router chaos tests and jadeload's backend-kill schedules flip it
// mid-run to take nodes down (or hang them) deterministically.
type ChaosBackend struct {
	Backend
	mode atomic.Value // string
}

// NewChaosBackend wraps b in ChaosPass mode.
func NewChaosBackend(b Backend) *ChaosBackend {
	c := &ChaosBackend{Backend: b}
	c.mode.Store(ChaosPass)
	return c
}

// SetMode switches the failure mode (ChaosPass, ChaosHang, ChaosDown).
func (c *ChaosBackend) SetMode(mode string) { c.mode.Store(mode) }

func (c *ChaosBackend) intercept(ctx context.Context) error {
	switch c.mode.Load().(string) {
	case ChaosDown:
		return &BackendError{Backend: c.Name(), Msg: "chaos: backend is down"}
	case ChaosHang:
		<-ctx.Done()
		return &BackendError{Backend: c.Name(), Msg: "chaos: backend hung: " + ctx.Err().Error()}
	}
	return nil
}

func (c *ChaosBackend) Healthz(ctx context.Context) error {
	if err := c.intercept(ctx); err != nil {
		return err
	}
	return c.Backend.Healthz(ctx)
}

func (c *ChaosBackend) Submit(ctx context.Context, spec *serve.JobSpec, sync bool, traceID string) (*serve.JobStatus, error) {
	if err := c.intercept(ctx); err != nil {
		return nil, err
	}
	return c.Backend.Submit(ctx, spec, sync, traceID)
}
