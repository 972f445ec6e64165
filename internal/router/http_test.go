package router

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/svcobs"
)

func testHandler(t *testing.T, mut func(*Config), names ...string) (*Router, map[string]*fakeBackend, *httptest.Server) {
	t.Helper()
	rt, fakes := testRouter(t, mut, names...)
	ts := httptest.NewServer(NewHandler(rt))
	t.Cleanup(ts.Close)
	return rt, fakes, ts
}

func getJSON(t *testing.T, url string, out any) (int, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode, resp.Header
}

// TestHandlerSubmitHeaders: a routed submission reports its serving
// backend and echoes (or mints) the trace ID.
func TestHandlerSubmitHeaders(t *testing.T) {
	rt, _, ts := testHandler(t, nil, "n1", "n2", "n3")
	resp, err := http.Post(ts.URL+"/v1/jobs?sync=1", "application/json",
		strings.NewReader(`{"experiments":["table1"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || doc.Status != serve.StatusDone {
		t.Fatalf("submit = %d / %s, want 200 done", resp.StatusCode, doc.Status)
	}
	spec := testSpec(t, "table1")
	if got, want := resp.Header.Get(BackendHeader), rt.Ring().Primary(spec.Hash()); got != want {
		t.Fatalf("%s = %q, want ring primary %q", BackendHeader, got, want)
	}
	if resp.Header.Get(svcobs.TraceHeader) == "" {
		t.Fatalf("response carried no %s", svcobs.TraceHeader)
	}
	if resp.Header.Get(StaleHeader) != "" {
		t.Fatalf("healthy response marked stale")
	}

	// A malformed spec is the client's fault, not a routing problem.
	resp2, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"experiments":["nope"]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec = %d, want 400", resp2.StatusCode)
	}
}

// TestHandlerStaleHeaderAndRetryAfter: degraded mode marks stale
// responses, and uncached keys fail 503 with a Retry-After hint.
func TestHandlerStaleHeaderAndRetryAfter(t *testing.T) {
	_, fakes, ts := testHandler(t, nil, "n1", "n2")
	body := `{"experiments":["table1"]}`
	resp, err := http.Post(ts.URL+"/v1/jobs?sync=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	for _, f := range fakes {
		f.setMode(ChaosDown)
	}
	resp, err = http.Post(ts.URL+"/v1/jobs?sync=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(StaleHeader) != "true" {
		t.Fatalf("cached key while down = %d stale=%q, want 200 stale", resp.StatusCode, resp.Header.Get(StaleHeader))
	}

	resp, err = http.Post(ts.URL+"/v1/jobs?sync=1", "application/json",
		strings.NewReader(`{"experiments":["table2"]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("uncached key while down = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 carried no Retry-After")
	}
}

// TestHandlerHealthAndMetrics: /healthz tracks backend states and
// /metricz exports the counters in JSON and Prometheus text.
func TestHandlerHealthAndMetrics(t *testing.T) {
	rt, fakes, ts := testHandler(t, nil, "n1", "n2", "n3")

	var health RouterHealth
	if code, _ := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz = %d %q, want 200 ok", code, health.Status)
	}

	// Eject one backend via explicit failures.
	spec := testSpec(t, "table3")
	victim := rt.Ring().Primary(spec.Hash())
	fakes[victim].setMode(ChaosDown)
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/v1/jobs?sync=1", "application/json",
			strings.NewReader(`{"experiments":["table3"]}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d while failing over = %d, want 200", i, resp.StatusCode)
		}
	}
	if code, _ := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health.Status != "degraded" {
		t.Fatalf("healthz after ejection = %d %q, want 200 degraded", code, health.Status)
	}
	if health.Backends[victim].State != StateEjected {
		t.Fatalf("victim state = %q, want ejected", health.Backends[victim].State)
	}

	var metrics RouterMetrics
	if code, _ := getJSON(t, ts.URL+"/metricz", &metrics); code != http.StatusOK {
		t.Fatalf("metricz = %d", code)
	}
	if metrics.Schema != MetricsSchema {
		t.Fatalf("metricz schema = %q, want %q", metrics.Schema, MetricsSchema)
	}
	if metrics.Counters.Failovers < 1 || metrics.Counters.Ejections != 1 {
		t.Fatalf("metricz counters = %+v, want ≥1 failover and 1 ejection", metrics.Counters)
	}

	resp, err := http.Get(ts.URL + "/metricz?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"jaderouter_routed_total", "jaderouter_failovers_total", "jaderouter_backend_state"} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("prom exposition missing %s:\n%s", want, prom)
		}
	}
}

// TestHandlerTraces: with spans on, a routed request's trace is
// retrievable by the ID the response echoed.
func TestHandlerTraces(t *testing.T) {
	_, _, ts := testHandler(t, func(c *Config) { c.Spans = true }, "n1", "n2")
	resp, err := http.Post(ts.URL+"/v1/jobs?sync=1", "application/json",
		strings.NewReader(`{"experiments":["table1"]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	id := resp.Header.Get(svcobs.TraceHeader)
	if id == "" {
		t.Fatal("no trace ID echoed")
	}
	var doc svcobs.Doc
	if code, _ := getJSON(t, ts.URL+"/v1/traces/"+id, &doc); code != http.StatusOK {
		t.Fatalf("trace fetch = %d", code)
	}
	if doc.Root == nil || doc.Root.Name != "route" {
		t.Fatalf("trace root = %+v, want a route span", doc.Root)
	}
	found := false
	for _, child := range doc.Root.Children {
		if strings.HasPrefix(child.Name, "attempt:") {
			found = true
		}
	}
	if !found {
		t.Fatalf("route trace has no attempt span: %+v", doc.Root.Children)
	}
	if code, _ := getJSON(t, ts.URL+"/v1/traces/nope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown trace = %d, want 404", code)
	}
}

// TestHandlerTimedOutJob: like jaded, the router answers a synchronous
// submit whose job timed out 504 with a Retry-After hint, and an
// async job's poll 200 with the failure in the body.
func TestHandlerTimedOutJob(t *testing.T) {
	rt, fakes, ts := testHandler(t, nil, "n1", "n2")
	for _, f := range fakes {
		f.setMode(fakeTimeout)
	}
	body := `{"experiments":["table1"]}`
	resp, err := http.Post(ts.URL+"/v1/jobs?sync=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var doc serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout || doc.ErrorCode != serve.ErrCodeTimeout {
		t.Fatalf("sync timed-out job = %d %q, want 504 %q", resp.StatusCode, doc.ErrorCode, serve.ErrCodeTimeout)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("504 carried no Retry-After")
	}

	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit = %d, want 202", resp.StatusCode)
	}
	awaitJob(t, rt, doc.ID, 5*time.Second)
	var polled serve.JobStatus
	if code, _ := getJSON(t, ts.URL+"/v1/jobs/"+doc.ID, &polled); code != http.StatusOK || polled.ErrorCode != serve.ErrCodeTimeout {
		t.Fatalf("poll of a timed-out async job = %d %q, want 200 %q", code, polled.ErrorCode, serve.ErrCodeTimeout)
	}
}
