package router

import (
	"context"
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

// testFront builds rt's job front and shuts it down with the test.
func testFront(t *testing.T, rt *Router, spans bool) *serve.Server {
	t.Helper()
	front := rt.Front(spans)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = front.Shutdown(ctx)
	})
	return front
}

// testHandler serves jaderouter's HTTP surface over fake backends.
func testHandler(t *testing.T, spans bool, names ...string) (*Router, map[string]*fakeBackend, *httptest.Server) {
	t.Helper()
	rt, fakes := testRouter(t, nil, names...)
	ts := httptest.NewServer(NewHandler(rt, testFront(t, rt, spans)))
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

// postJob submits a job spec (?sync=1 when sync) and decodes the
// status document the answer carries, if any.
func postJob(t *testing.T, base, body string, sync bool) (int, http.Header, *serve.JobStatus) {
	t.Helper()
	path := "/v1/jobs"
	if sync {
		path += "?sync=1"
	}
	code, hdr, data := send(t, http.MethodPost, base+path, body, "")
	var doc serve.JobStatus
	_ = json.Unmarshal(data, &doc) // an error envelope leaves doc empty
	return code, hdr, &doc
}

// TestHandlerSubmitHeaders: a routed submission reports its serving
// backend in the document and the header, and echoes (or mints) the
// trace ID.
func TestHandlerSubmitHeaders(t *testing.T) {
	rt, _, ts := testHandler(t, false, "n1", "n2", "n3")
	code, hdr, doc := postJob(t, ts.URL, `{"experiments":["table1"]}`, true)
	if code != http.StatusOK || doc.Status != serve.StatusDone {
		t.Fatalf("submit = %d / %s, want 200 done", code, doc.Status)
	}
	spec := testSpec(t, "table1")
	if got, want := hdr.Get(serve.BackendHeader), rt.Ring().Primary(spec.Hash()); got != want || doc.Backend != want {
		t.Fatalf("%s = %q, backend = %q, want ring primary %q", serve.BackendHeader, got, doc.Backend, want)
	}
	if hdr.Get(svcobs.TraceHeader) == "" {
		t.Fatalf("response carried no %s", svcobs.TraceHeader)
	}
	if hdr.Get(serve.StaleHeader) != "" {
		t.Fatalf("healthy response marked stale")
	}

	// A malformed spec is the client's fault, not a routing problem.
	if code, _, _ := postJob(t, ts.URL, `{"experiments":["nope"]}`, false); code != http.StatusBadRequest {
		t.Fatalf("bad spec = %d, want 400", code)
	}
}

// TestHandlerStaleHeaderAndFailure: degraded mode marks stale
// responses, and a job for an uncached key fails as unavailable
// (retry later), still answering 200 with the status in the body.
func TestHandlerStaleHeaderAndFailure(t *testing.T) {
	_, fakes, ts := testHandler(t, false, "n1", "n2")
	postJob(t, ts.URL, `{"experiments":["table1"]}`, true)
	for _, f := range fakes {
		f.setMode(ChaosDown)
	}
	code, hdr, doc := postJob(t, ts.URL, `{"experiments":["table1"]}`, true)
	if code != http.StatusOK || hdr.Get(serve.StaleHeader) != "true" || !doc.Stale {
		t.Fatalf("cached key while down = %d stale=%q/%v, want 200 stale", code, hdr.Get(serve.StaleHeader), doc.Stale)
	}

	code, _, doc = postJob(t, ts.URL, `{"experiments":["table2"]}`, true)
	if code != http.StatusOK || doc.Status != serve.StatusFailed || doc.ErrorCode != serve.ErrCodeUnavailable ||
		!strings.Contains(doc.Error, "backend") {
		t.Fatalf("uncached key while down = %d %s %q (%s), want 200 unavailable naming a backend",
			code, doc.Status, doc.ErrorCode, doc.Error)
	}
}

// TestHandlerHealthAndMetrics: /healthz tracks backend states and
// /metricz exports the counters in JSON and Prometheus text.
func TestHandlerHealthAndMetrics(t *testing.T) {
	rt, fakes, ts := testHandler(t, false, "n1", "n2", "n3")

	var health RouterHealth
	if code, _ := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz = %d %q, want 200 ok", code, health.Status)
	}

	// Eject one backend via explicit failures.
	spec := testSpec(t, "table3")
	victim := rt.Ring().Primary(spec.Hash())
	fakes[victim].setMode(ChaosDown)
	for i := 0; i < 3; i++ {
		if code, _, _ := postJob(t, ts.URL, `{"experiments":["table3"]}`, true); code != http.StatusOK {
			t.Fatalf("request %d while failing over = %d, want 200", i, code)
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

// TestHandlerTraces: with spans on, a routed job's trace holds its
// routing attempts under the job's execute span.
func TestHandlerTraces(t *testing.T) {
	_, _, ts := testHandler(t, true, "n1", "n2")
	_, _, doc := postJob(t, ts.URL, `{"experiments":["table1"]}`, true)
	var trace svcobs.Doc
	if code, _ := getJSON(t, ts.URL+"/v1/jobs/"+doc.ID+"/trace", &trace); code != http.StatusOK {
		t.Fatalf("trace fetch = %d", code)
	}
	exec := trace.Root.Phase("execute")
	if exec == nil || len(exec.Children) == 0 || !strings.HasPrefix(exec.Children[0].Name, "attempt:") {
		t.Fatalf("execute span = %+v, want an attempt span under it", exec)
	}
}

// TestHandlerTimedOutJob: like jaded, the router answers a synchronous
// submit whose job timed out 504 with its JobTimeout (RequestTimeout)
// as Retry-After, and an async job's poll 200 with the failure in the
// body.
func TestHandlerTimedOutJob(t *testing.T) {
	_, fakes, ts := testHandler(t, false, "n1", "n2")
	for _, f := range fakes {
		f.setMode(fakeTimeout)
	}
	body := `{"experiments":["table1"]}`
	code, hdr, doc := postJob(t, ts.URL, body, true)
	if code != http.StatusGatewayTimeout || doc.ErrorCode != serve.ErrCodeTimeout {
		t.Fatalf("sync timed-out job = %d %q, want 504 %q", code, doc.ErrorCode, serve.ErrCodeTimeout)
	}
	if got := hdr.Get("Retry-After"); got != "10" {
		t.Fatalf("Retry-After = %q, want the 10s RequestTimeout as \"10\"", got)
	}

	if code, _, doc = postJob(t, ts.URL, body, false); code != http.StatusAccepted {
		t.Fatalf("async submit = %d, want 202", code)
	}
	if code, polled := pollDone(t, ts.URL, doc.ID); code != http.StatusOK || polled.ErrorCode != serve.ErrCodeTimeout {
		t.Fatalf("poll of a timed-out async job = %d %q, want 200 %q", code, polled.ErrorCode, serve.ErrCodeTimeout)
	}
}
