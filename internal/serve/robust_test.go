package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPanicIsolation: a panicking job must fail with a stack-capture
// error while the worker (and server) stay healthy enough to run the
// next job.
func TestPanicIsolation(t *testing.T) {
	var runs atomic.Int32
	runFn := func(_ context.Context, spec *JobSpec, _ string) (JobStatus, error) {
		runs.Add(1)
		if len(spec.Experiments) > 0 && spec.Experiments[0] == "table1" {
			panic("injected chaos")
		}
		return JobStatus{Result: []byte(`{"schema":"jadebench/v1"}`)}, nil
	}
	_, ts := newTestServer(t, Config{Workers: 1}, runFn)

	code, doc, _ := submit(t, ts.URL, `{"experiments":["table1"]}`, true)
	if code != http.StatusOK {
		t.Fatalf("panicking submit = %d", code)
	}
	if doc.Status != StatusFailed || doc.ErrorCode != ErrCodeFailed {
		t.Fatalf("doc = %+v, want failed/failed", doc)
	}
	if !strings.Contains(doc.Error, "injected chaos") || !strings.Contains(doc.Error, "goroutine") {
		t.Fatalf("error %q does not carry the panic value and stack", doc.Error)
	}

	// The single worker must still be alive to run this.
	code, doc, _ = submit(t, ts.URL, `{"experiments":["table2"]}`, true)
	if code != http.StatusOK || doc.Status != StatusDone {
		t.Fatalf("post-panic job = %d/%s (%s), want 200/done", code, doc.Status, doc.Error)
	}
	if m := metricz(t, ts.URL); m.JobsPanicked != 1 {
		t.Fatalf("jobs_panicked = %d, want 1", m.JobsPanicked)
	}
}

// TestDeadlineCoversQueueWait: the job deadline starts at submission,
// so a job whose deadline expired while it sat queued fails without
// ever reaching the runner.
func TestDeadlineCoversQueueWait(t *testing.T) {
	var runs atomic.Int32
	runFn := func(context.Context, *JobSpec, string) (JobStatus, error) {
		runs.Add(1)
		return JobStatus{Result: []byte(`{}`)}, nil
	}
	s := New(Config{Workers: 1, CacheEntries: -1, JobTimeout: 10 * time.Millisecond, Run: runFn})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	spec := &JobSpec{Experiments: []string{"table1"}}
	if err := spec.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	j := s.registerJobLocked(spec, spec.Hash())
	s.accepted++
	s.mu.Unlock()
	// Let the deadline lapse "in the queue", then hand the job to a
	// worker the way Pop would.
	time.Sleep(20 * time.Millisecond)
	s.execute(j)
	<-j.done
	doc := s.statusDoc(j)
	if doc.Status != StatusFailed || doc.ErrorCode != ErrCodeTimeout {
		t.Fatalf("doc = %+v, want failed/timeout", doc)
	}
	if !strings.Contains(doc.Error, "queued") {
		t.Fatalf("error = %q, want it to name the queue wait", doc.Error)
	}
	if got := runs.Load(); got != 0 {
		t.Fatalf("runner executed %d times; an expired job must never run", got)
	}
}

// TestCircuitBreaker: repeated failures trip the experiment's circuit
// (503 + Retry-After), other experiments stay open, and after the
// cooldown a half-open probe's success closes it again.
func TestCircuitBreaker(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	runFn := func(context.Context, *JobSpec, string) (JobStatus, error) {
		if fail.Load() {
			return JobStatus{}, errRunnerBroken
		}
		return JobStatus{Result: []byte(`{"schema":"jadebench/v1"}`)}, nil
	}
	s, ts := newTestServer(t, Config{
		Workers: 1, CacheEntries: -1,
		BreakerThreshold: 2, BreakerCooldown: time.Hour,
	}, runFn)

	spec := `{"experiments":["table1"]}`
	for i := 0; i < 2; i++ {
		if _, doc, _ := submit(t, ts.URL, spec, true); doc.Status != StatusFailed {
			t.Fatalf("failure %d: status %s", i, doc.Status)
		}
	}
	code, _, hdr := submit(t, ts.URL, spec, true)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("tripped submit = %d, want 503", code)
	}
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("open-circuit Retry-After = %q, want a positive integer", hdr.Get("Retry-After"))
	}
	m := metricz(t, ts.URL)
	br, ok := m.CircuitBreakers["table1"]
	if !ok || br.State != BreakerOpen || br.Trips != 1 || br.RetryAfterSec <= 0 {
		t.Fatalf("breaker gauge = %+v (present=%v)", br, ok)
	}

	// A different experiment is unaffected by table1's circuit.
	fail.Store(false)
	if code, doc, _ := submit(t, ts.URL, `{"experiments":["table2"]}`, true); code != http.StatusOK || doc.Status != StatusDone {
		t.Fatalf("independent experiment = %d/%s", code, doc.Status)
	}

	// After the cooldown the next submission is the half-open probe;
	// its success closes the circuit for good.
	s.breaker.now = func() time.Time { return time.Now().Add(2 * time.Hour) }
	for i := 0; i < 2; i++ {
		if code, doc, _ := submit(t, ts.URL, spec, true); code != http.StatusOK || doc.Status != StatusDone {
			t.Fatalf("post-cooldown submit %d = %d/%s (%s)", i, code, doc.Status, doc.Error)
		}
	}
	if br := metricz(t, ts.URL).CircuitBreakers["table1"]; br.State != BreakerClosed {
		t.Fatalf("breaker state after successful probe = %s, want closed", br.State)
	}
}

// TestCircuitBreakerHalfOpenFailureReopens: a failing probe re-trips
// the circuit immediately, without needing a full failure streak.
func TestCircuitBreakerHalfOpenFailureReopens(t *testing.T) {
	runFn := func(context.Context, *JobSpec, string) (JobStatus, error) {
		return JobStatus{}, errRunnerBroken
	}
	s, ts := newTestServer(t, Config{
		Workers: 1, CacheEntries: -1,
		BreakerThreshold: 1, BreakerCooldown: time.Hour,
	}, runFn)

	spec := `{"experiments":["table3"]}`
	if _, doc, _ := submit(t, ts.URL, spec, true); doc.Status != StatusFailed {
		t.Fatalf("first failure not recorded: %s", doc.Status)
	}
	if code, _, _ := submit(t, ts.URL, spec, true); code != http.StatusServiceUnavailable {
		t.Fatalf("tripped submit = %d, want 503", code)
	}
	s.breaker.now = func() time.Time { return time.Now().Add(2 * time.Hour) }
	if _, doc, _ := submit(t, ts.URL, spec, true); doc.Status != StatusFailed {
		t.Fatalf("probe was not admitted: %s", doc.Status)
	}
	// now() is still 2h ahead, so the re-opened circuit blocks again.
	if code, _, _ := submit(t, ts.URL, spec, true); code != http.StatusServiceUnavailable {
		t.Fatalf("post-probe submit = %d, want 503 (circuit re-opened)", code)
	}
	if br := metricz(t, ts.URL).CircuitBreakers["table3"]; br.Trips != 2 {
		t.Fatalf("trips = %d, want 2", br.Trips)
	}
}

// TestShutdownFinishesFollowers is the singleflight/shutdown
// regression test: followers parked on an in-flight leader when
// Shutdown begins must be finished with the leader's result, never
// left pending.
func TestShutdownFinishesFollowers(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	s := New(Config{Workers: 2, QueueCap: 8, Run: blockingRunner(started, release)})
	ts := httptest.NewServer(s)
	defer ts.Close()

	spec := `{"experiments":["table1"]}`
	var wg sync.WaitGroup
	docs := make([]*JobStatus, 2)
	wg.Add(1)
	go func() { defer wg.Done(); _, docs[0], _ = submit(t, ts.URL, spec, true) }()
	<-started // the leader is executing and blocked
	wg.Add(1)
	go func() { defer wg.Done(); _, docs[1], _ = submit(t, ts.URL, spec, true) }()
	deadline := time.Now().Add(10 * time.Second)
	for metricz(t, ts.URL).JobsDeduped == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never parked on the leader")
		}
		time.Sleep(2 * time.Millisecond)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	// Give Shutdown a moment to close the queue, then let the leader
	// finish; the follower must ride along.
	time.Sleep(10 * time.Millisecond)
	close(release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	for i, d := range docs {
		if d.Status != StatusDone {
			t.Fatalf("job %d finished shutdown as %q (%s), want done", i, d.Status, d.Error)
		}
	}
	if !strings.Contains(string(docs[1].Result), "jadebench") {
		t.Fatal("follower did not receive the leader's result")
	}
}

// TestBackpressureBurst floods the server far past queue capacity:
// every response must be either an accept or a 429 with a sane
// Retry-After, and the /metricz gauges must stay consistent.
func TestBackpressureBurst(t *testing.T) {
	started := make(chan struct{}, 64)
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 2}, blockingRunner(started, release))

	// Occupy the single worker before the burst so the queue is the
	// only capacity left.
	if code, _, _ := submit(t, ts.URL, `{"experiments":["table1"]}`, false); code != http.StatusAccepted {
		t.Fatalf("occupant = %d", code)
	}
	<-started

	const burst = 24
	var wg sync.WaitGroup
	var accepted, rejected atomic.Int32
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := fmt.Sprintf(`{"experiments":["table%d"]}`, 2+i%9)
			code, _, hdr := submit(t, ts.URL, spec, false)
			switch code {
			case http.StatusAccepted:
				accepted.Add(1)
			case http.StatusTooManyRequests:
				rejected.Add(1)
				if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
					t.Errorf("429 Retry-After = %q, want positive integer seconds", hdr.Get("Retry-After"))
				}
			default:
				t.Errorf("burst submit = %d, want 202 or 429", code)
			}
		}(i)
	}
	wg.Wait()

	if rejected.Load() == 0 {
		t.Fatal("no burst submission hit backpressure")
	}
	if accepted.Load() > 2+1 {
		t.Fatalf("accepted %d burst jobs with queue cap 2 and one busy worker", accepted.Load())
	}
	m := metricz(t, ts.URL)
	if m.QueueDepth > m.QueueCapacity {
		t.Fatalf("queue_depth %d exceeds capacity %d", m.QueueDepth, m.QueueCapacity)
	}
	if m.JobsRejected != int64(rejected.Load()) {
		t.Fatalf("jobs_rejected = %d, want %d", m.JobsRejected, rejected.Load())
	}
	// accepted gauge counts the burst accepts plus the worker occupant.
	if m.JobsAccepted != int64(accepted.Load())+1 {
		t.Fatalf("jobs_accepted = %d, want %d", m.JobsAccepted, accepted.Load()+1)
	}
	close(release)
}
