package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// awaitJob polls an async job until it is done or failed, failing the
// test if that takes longer than within.
func awaitJob(t *testing.T, rt *Router, id string, within time.Duration) *serve.JobStatus {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		doc, err := rt.Status(context.Background(), id)
		if err != nil {
			t.Fatalf("poll %s: %v", id, err)
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

// TestRouterAsyncJob: an async submit returns 202 with a job ID the
// router minted and names no backend; the poll returns the ring
// primary's result under that same ID, and an unknown ID is a 404
// through the HTTP surface.
func TestRouterAsyncJob(t *testing.T) {
	rt, _, ts := testHandler(t, nil, "n1", "n2", "n3")
	spec := testSpec(t, "table4")
	res := rt.Do(context.Background(), spec, false, "")
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Code != http.StatusAccepted || !strings.HasPrefix(res.Doc.ID, "route-") || res.Backend != "" {
		t.Fatalf("async submit: code=%d id=%q backend=%q, want 202, a route- ID and no backend",
			res.Code, res.Doc.ID, res.Backend)
	}
	doc := awaitJob(t, rt, res.Doc.ID, 5*time.Second)
	if doc.ID != res.Doc.ID || doc.Status != serve.StatusDone {
		t.Fatalf("poll = id %q status %s, want id %q done", doc.ID, doc.Status, res.Doc.ID)
	}
	if got, want := servedBy(t, doc), rt.Ring().Primary(spec.Hash()); got != want {
		t.Fatalf("job served by %s, want ring primary %s", got, want)
	}
	if code, _ := getJSON(t, ts.URL+"/v1/jobs/"+res.Doc.ID, nil); code != http.StatusOK {
		t.Fatalf("GET known job = %d, want 200", code)
	}
	if code, _ := getJSON(t, ts.URL+"/v1/jobs/no-such-job", nil); code != http.StatusNotFound {
		t.Fatalf("GET unknown job = %d, want 404", code)
	}
}

// TestRouterAsyncSurvivesPrimaryLoss: the async job's ring primary
// hangs or goes down right after the submit. The job still finishes
// well inside RequestTimeout, because it hedges and fails over like a
// sync request, and polls never wait on a backend: once the job is
// done, further polls route nothing, submit nothing and move no
// backend's health.
func TestRouterAsyncSurvivesPrimaryLoss(t *testing.T) {
	for _, mode := range []string{ChaosHang, ChaosDown} {
		t.Run(mode, func(t *testing.T) {
			rt, fakes := testRouter(t, nil, "n1", "n2", "n3")
			spec := testSpec(t, "table5")
			res := rt.Do(context.Background(), spec, false, "")
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			fakes[rt.Ring().Primary(spec.Hash())].setMode(mode)

			start := time.Now()
			if doc := awaitJob(t, rt, res.Doc.ID, 2*time.Second); doc.Status != serve.StatusDone {
				t.Fatalf("job ended %s (%s), want done", doc.Status, doc.Error)
			}
			if took := time.Since(start); took > rt.cfg.RequestTimeout/5 {
				t.Fatalf("job took %v to finish, want well inside the %v timeout", took, rt.cfg.RequestTimeout)
			}

			routed, health := rt.Counters().Routed, rt.HealthSnapshot()
			submits := map[string]int{}
			for name, f := range fakes {
				submits[name] = f.submitCount()
			}
			for i := 0; i < 20; i++ {
				awaitJob(t, rt, res.Doc.ID, time.Second)
			}
			if got := rt.Counters().Routed; got != routed {
				t.Fatalf("polls routed %d requests", got-routed)
			}
			for name, f := range fakes {
				if got := f.submitCount(); got != submits[name] {
					t.Fatalf("polls sent %d submits to %s", got-submits[name], name)
				}
			}
			if got := rt.HealthSnapshot(); !reflect.DeepEqual(got, health) {
				t.Fatalf("polls moved backend health: %+v, was %+v", got, health)
			}
		})
	}
}

// TestRouterAsyncSlotsAndClose: behind a hung backend, async jobs
// pile up until every slot is busy; further submits get 429 with a
// Retry-After through the HTTP surface. Close cancels the running
// jobs and returns only once each one has ended.
func TestRouterAsyncSlotsAndClose(t *testing.T) {
	rt, fakes, ts := testHandler(t, nil, "n1")
	fakes["n1"].setMode(ChaosHang)
	submit := func() (int, string, string) {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"experiments":["table1"]}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc serve.JobStatus
		if resp.StatusCode == http.StatusAccepted {
			if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, resp.Header.Get("Retry-After"), doc.ID
	}
	var ids []string
	for i := 0; i < asyncSlots; i++ {
		code, _, id := submit()
		if code != http.StatusAccepted {
			t.Fatalf("submit %d = %d, want 202", i, code)
		}
		ids = append(ids, id)
	}
	for i := 0; i < 3; i++ {
		if code, retry, _ := submit(); code != http.StatusTooManyRequests || retry == "" {
			t.Fatalf("submit past the slots = %d (Retry-After %q), want 429 with Retry-After", code, retry)
		}
	}

	closed := make(chan struct{})
	go func() { rt.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
	for _, id := range ids {
		doc, err := rt.Status(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if doc.Status != serve.StatusFailed {
			t.Fatalf("job %s is %s after Close, want failed", id, doc.Status)
		}
	}
	if code, _, _ := submit(); code != http.StatusServiceUnavailable {
		t.Fatalf("submit after Close = %d, want 503", code)
	}
}

// TestRouterAsyncRetention: the job table keeps the 4096 most recent
// jobs; the oldest of 4097 finished jobs is gone.
func TestRouterAsyncRetention(t *testing.T) {
	rt, _ := testRouter(t, nil, "n1")
	spec := testSpec(t, "table1")
	var ids []string
	for len(ids) < 4097 {
		batch := min(asyncSlots, 4097-len(ids))
		for i := 0; i < batch; i++ {
			res := rt.Do(context.Background(), spec, false, "")
			if res.Err != nil {
				t.Fatalf("submit %d: %v", len(ids), res.Err)
			}
			ids = append(ids, res.Doc.ID)
		}
		for _, id := range ids[len(ids)-batch:] {
			awaitJob(t, rt, id, 5*time.Second)
		}
	}
	var be *BackendError
	if _, err := rt.Status(context.Background(), ids[0]); !errors.As(err, &be) || be.Code != http.StatusNotFound {
		t.Fatalf("oldest job poll = %v, want a 404", err)
	}
	if _, err := rt.Status(context.Background(), ids[1]); err != nil {
		t.Fatalf("second-oldest job evicted: %v", err)
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

	paper := &serve.JobSpec{Scale: "paper", Experiments: []string{"table1"}}
	if err := paper.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	res := rt.Do(context.Background(), paper, false, "")
	if res.Err != nil || res.Code != http.StatusAccepted {
		t.Fatalf("async paper-scale submit: code=%d err=%v, want 202", res.Code, res.Err)
	}
	doc := awaitJob(t, rt, res.Doc.ID, 30*time.Second)
	if doc.Status != serve.StatusDone || len(doc.Result) == 0 {
		t.Fatalf("paper-scale job ended %s (%s) with %d result bytes, want done with a result",
			doc.Status, doc.Error, len(doc.Result))
	}

	res = rt.Do(context.Background(), testSpec(t, "table2"), true, "")
	if res.Err != nil || res.Code != http.StatusOK || res.Doc.Status != serve.StatusDone || len(res.Doc.Result) == 0 {
		t.Fatalf("small sync request: code=%d err=%v, want 200 done with a result", res.Code, res.Err)
	}
}
