package router

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/serve"
)

// awaitJob polls an async job on the front until it is done or failed,
// failing the test if that takes longer than within.
func awaitJob(t *testing.T, front *serve.Server, id string, within time.Duration) *serve.JobStatus {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		doc, ok := front.Status(id)
		if !ok {
			t.Fatalf("poll %s: unknown job", id)
		}
		if doc.Status == serve.StatusDone || doc.Status == serve.StatusFailed {
			return doc
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, doc.Status, within)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRouterAsyncJob: an async submit to the HTTP surface answers 202
// with a job the front minted and names no backend yet; the poll
// returns the ring primary's result under that same ID and names it.
// Polls of a finished job route nothing, and an unknown ID is a 404.
func TestRouterAsyncJob(t *testing.T) {
	rt, _, ts := testHandler(t, false, "n1", "n2", "n3")
	code, _, sub := postJob(t, ts.URL, `{"experiments":["table4"]}`, false)
	if code != http.StatusAccepted || sub.ID == "" || sub.Backend != "" {
		t.Fatalf("async submit: code=%d id=%q backend=%q, want 202, an ID and no backend", code, sub.ID, sub.Backend)
	}
	code, doc := pollDone(t, ts.URL, sub.ID)
	if code != http.StatusOK || doc.ID != sub.ID || doc.Status != serve.StatusDone {
		t.Fatalf("poll = %d id %q status %s, want 200 id %q done", code, doc.ID, doc.Status, sub.ID)
	}
	primary := rt.Ring().Primary(testSpec(t, "table4").Hash())
	if doc.Backend != primary || servedBy(t, doc) != primary {
		t.Fatalf("job names backend %q, served by %q, want ring primary %s", doc.Backend, servedBy(t, doc), primary)
	}
	routed := rt.Counters().Routed
	for i := 0; i < 5; i++ {
		pollDone(t, ts.URL, sub.ID)
	}
	if got := rt.Counters().Routed; got != routed {
		t.Fatalf("polls routed %d requests", got-routed)
	}
	if code, _, _ := send(t, http.MethodGet, ts.URL+"/v1/jobs/no-such-job", "", ""); code != http.StatusNotFound {
		t.Fatalf("GET unknown job = %d, want 404", code)
	}
}

// TestRouterAsyncSlotsAndClose: behind a hung backend, async jobs fill
// every front worker and then the queue; further submits get 429 with
// a Retry-After. Shutdown fails the queued jobs at once and returns
// once each running job has ended on its deadline; a submit after it
// is a 503.
func TestRouterAsyncSlotsAndClose(t *testing.T) {
	const queueCap = 32 // serve's default QueueCap, which Front keeps
	rt, fakes := testRouter(t, func(c *Config) { c.RequestTimeout = 2 * time.Second }, "n1")
	fakes["n1"].setMode(ChaosHang)
	front := testFront(t, rt, false)
	ts := httptest.NewServer(NewHandler(rt, front))
	t.Cleanup(ts.Close)
	submit := func(want int) string {
		t.Helper()
		code, hdr, doc := postJob(t, ts.URL, `{"experiments":["table1"]}`, false)
		if code != want || (want == http.StatusTooManyRequests && hdr.Get("Retry-After") == "") {
			t.Fatalf("submit = %d (Retry-After %q), want %d", code, hdr.Get("Retry-After"), want)
		}
		return doc.ID
	}
	var running, queued []string
	for i := 0; i < frontWorkers; i++ {
		id := submit(http.StatusAccepted)
		running = append(running, id)
		for doc, _ := front.Status(id); doc.Status != serve.StatusRunning; doc, _ = front.Status(id) {
			time.Sleep(100 * time.Microsecond)
		}
	}
	for i := 0; i < queueCap; i++ {
		queued = append(queued, submit(http.StatusAccepted))
	}
	for i := 0; i < 3; i++ {
		submit(http.StatusTooManyRequests)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := front.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, id := range append(running, queued...) {
		if doc, _ := front.Status(id); doc.Status != serve.StatusFailed {
			t.Fatalf("job %s is %s after Shutdown, want failed", id, doc.Status)
		}
	}
	submit(http.StatusServiceUnavailable)
}

// TestRouterAsyncRetention: the front's job table keeps the 4096 most
// recent finished jobs; the oldest of 4097 is gone.
func TestRouterAsyncRetention(t *testing.T) {
	rt, _ := testRouter(t, nil, "n1")
	front := testFront(t, rt, false)
	var ids []string
	for len(ids) < 4097 {
		// Batches fit the empty queue; the first job finishes alone,
		// as the table evicts in finishing order.
		batch := min(32, 4097-len(ids), max(len(ids), 1))
		for i := 0; i < batch; i++ {
			doc, err := front.Submit(context.Background(), testSpec(t, "table1"), false, "")
			if err != nil {
				t.Fatalf("submit %d: %v", len(ids), err)
			}
			ids = append(ids, doc.ID)
		}
		for _, id := range ids[len(ids)-batch:] {
			awaitJob(t, front, id, 5*time.Second)
		}
	}
	if _, ok := front.Status(ids[0]); ok {
		t.Fatal("oldest of 4097 jobs still retained")
	}
	if _, ok := front.Status(ids[1]); !ok {
		t.Fatal("second-oldest job evicted")
	}
}

// TestRouterAsyncSurvivesPrimaryLoss: the async job's ring primary
// hangs or goes down right after the submit to the front. The job
// still finishes well inside RequestTimeout, because the front routes
// it like a sync request, which hedges and fails over.
func TestRouterAsyncSurvivesPrimaryLoss(t *testing.T) {
	for _, mode := range []string{ChaosHang, ChaosDown} {
		t.Run(mode, func(t *testing.T) {
			rt, fakes := testRouter(t, nil, "n1", "n2", "n3")
			front := testFront(t, rt, false)
			spec := testSpec(t, "table5")
			doc, err := front.Submit(context.Background(), spec, false, "")
			if err != nil {
				t.Fatal(err)
			}
			primary := rt.Ring().Primary(spec.Hash())
			fakes[primary].setMode(mode)

			start := time.Now()
			if doc = awaitJob(t, front, doc.ID, 2*time.Second); doc.Status != serve.StatusDone {
				t.Fatalf("job ended %s (%s), want done", doc.Status, doc.Error)
			}
			if took := time.Since(start); took > rt.cfg.RequestTimeout/5 {
				t.Fatalf("job took %v to finish, want well inside the %v timeout", took, rt.cfg.RequestTimeout)
			}
			if doc.Backend != servedBy(t, doc) {
				t.Fatalf("document names backend %q, result came from %q", doc.Backend, servedBy(t, doc))
			}
		})
	}
}

// TestHTTPBackendAsyncAndSync routes through two real jaded servers
// over HTTP. A paper-scale async job runs there as a sync request,
// which jaded refuses as ?sync=1, so the backend submits it async
// and polls it; a small-scale sync request goes straight through.
func TestHTTPBackendAsyncAndSync(t *testing.T) {
	var backends []Backend
	for i := 0; i < 2; i++ {
		srv := serve.New(serve.Config{Workers: 1})
		ts := httptest.NewServer(srv)
		t.Cleanup(func() {
			ts.Close()
			_ = srv.Shutdown(context.Background())
		})
		backends = append(backends, NewHTTPBackend(fmt.Sprintf("jaded-%d", i), ts.URL, nil))
	}
	rt, err := NewRouter(Config{RequestTimeout: 30 * time.Second, Health: HealthConfig{ProbeInterval: -1}}, backends...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := testFront(t, rt, false)

	paper := &serve.JobSpec{Scale: "paper", Experiments: []string{"table1"}}
	doc, err := front.Submit(context.Background(), paper, false, "")
	if err != nil {
		t.Fatalf("async paper-scale submit: %v", err)
	}
	doc = awaitJob(t, front, doc.ID, 30*time.Second)
	if doc.Status != serve.StatusDone || len(doc.Result) == 0 {
		t.Fatalf("paper-scale job ended %s (%s) with %d result bytes, want done with a result",
			doc.Status, doc.Error, len(doc.Result))
	}

	res := rt.Do(context.Background(), testSpec(t, "table2"), true, "")
	if res.Err != nil || res.Code != http.StatusOK || res.Doc.Status != serve.StatusDone || len(res.Doc.Result) == 0 {
		t.Fatalf("small sync request: code=%d err=%v, want 200 done with a result", res.Code, res.Err)
	}
}
