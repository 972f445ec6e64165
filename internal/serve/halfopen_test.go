package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBreakerHalfOpenConcurrentProbes is the half-open regression
// test: when a tripped circuit's cooldown elapses and a burst of
// identical submissions races for it, exactly one passes as the
// probe (the rest get 503), and the probe's success transitions the
// circuit exactly once. Run under -race via ci.sh.
func TestBreakerHalfOpenConcurrentProbes(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	var runs atomic.Int32
	runFn := func(context.Context, *JobSpec, string) (JobStatus, error) {
		if fail.Load() {
			return JobStatus{}, errRunnerBroken
		}
		runs.Add(1)
		started <- struct{}{}
		<-release
		return JobStatus{Result: []byte(`{"schema":"jadebench/v1"}`)}, nil
	}
	s, ts := newTestServer(t, Config{
		Workers: 4, QueueCap: 16, CacheEntries: -1,
		BreakerThreshold: 1, BreakerCooldown: time.Hour,
	}, runFn)

	spec := `{"experiments":["table1"]}`
	if _, doc, _ := submit(t, ts.URL, spec, true); doc.Status != StatusFailed {
		t.Fatalf("trip submission finished %q, want failed", doc.Status)
	}
	base := metricz(t, ts.URL).BreakerTransitions // closed→open
	fail.Store(false)
	// Elapse the cooldown; every submission below finds it expired.
	s.breaker.now = func() time.Time { return time.Now().Add(2 * time.Hour) }

	const burst = 8
	codes := make(chan int, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, _, _ := submit(t, ts.URL, spec, true)
			codes <- code
		}()
	}
	<-started // the single probe is executing (and blocked)
	// Everyone else must have been refused while the probe holds the
	// half-open slot.
	for i := 0; i < burst-1; i++ {
		if code := <-codes; code != http.StatusServiceUnavailable {
			t.Fatalf("concurrent submission %d = %d, want 503 while the probe is in flight", i, code)
		}
	}
	close(release)
	wg.Wait()
	if code := <-codes; code != http.StatusOK {
		t.Fatalf("probe submission = %d, want 200", code)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("%d probes executed, want exactly 1", got)
	}

	m := metricz(t, ts.URL)
	if br := m.CircuitBreakers["table1"]; br.State != BreakerClosed || br.Trips != 1 {
		t.Fatalf("breaker after probe success = %+v, want closed with 1 trip", br)
	}
	// Exactly two further transitions: open→half-open (the one probe
	// admission) and half-open→closed (its one success) — not one pair
	// per racing submission.
	if got := m.BreakerTransitions - base; got != 2 {
		t.Fatalf("probe resolution produced %d transitions, want 2", got)
	}
}

// TestBreakerCancelProbeReleasesSlot: a probe that never executes must
// hand the half-open slot back (circuit returns to open with the
// cooldown already spent), so the next submission re-probes instead of
// every future submission deadlocking against a phantom probe.
func TestBreakerCancelProbeReleasesSlot(t *testing.T) {
	b := newBreaker(1, time.Hour)
	key := []string{"x"}
	b.failure(key)
	if _, _, ok := b.allow(key); ok {
		t.Fatal("open circuit admitted a job inside the cooldown")
	}
	b.now = func() time.Time { return time.Now().Add(2 * time.Hour) }
	if _, _, ok := b.allow(key); !ok {
		t.Fatal("post-cooldown probe refused")
	}
	if _, k, ok := b.allow(key); ok || k != "x" {
		t.Fatalf("second probe admitted while the first is in flight (ok=%v key=%q)", ok, k)
	}
	b.cancelProbe(key)
	if st := b.snapshot()["x"]; st.State != BreakerOpen {
		t.Fatalf("cancelled probe left state %q, want open", st.State)
	}
	if _, _, ok := b.allow(key); !ok {
		t.Fatal("re-probe after a cancelled probe refused")
	}
	b.success(key)
	if st := b.snapshot()["x"]; st.State != BreakerClosed {
		t.Fatalf("probe success left state %q, want closed", st.State)
	}
}

// TestJitteredRetryAfterDeterministic pins the Retry-After jitter
// contract: reproducible per spec hash, bounded by [base, base+spread),
// and actually spread across different hashes.
func TestJitteredRetryAfterDeterministic(t *testing.T) {
	if a, b := jitterRetryAfter(retryBase, retrySpread, "h"), jitterRetryAfter(retryBase, retrySpread, "h"); a != b {
		t.Fatalf("same key jittered differently: %v vs %v", a, b)
	}
	seen := map[time.Duration]bool{}
	for i := 0; i < 64; i++ {
		d := jitterRetryAfter(retryBase, retrySpread, fmt.Sprintf("spec-%d", i))
		if d < retryBase || d >= retryBase+retrySpread {
			t.Fatalf("jitterRetryAfter(%q) = %v, outside [%v, %v)", fmt.Sprintf("spec-%d", i), d, retryBase, retryBase+retrySpread)
		}
		seen[d] = true
	}
	if len(seen) < 8 {
		t.Fatalf("64 keys landed on only %d distinct hints; jitter is not spreading", len(seen))
	}
	if d := jitterRetryAfter(retryBase, 0, "h"); d != retryBase {
		t.Fatalf("zero spread returned %v, want the base %v", d, retryBase)
	}
}

// TestRefusalHeadersCloseAndRetryAfter: every admission refusal a
// retrying router sees — queue-full 429 and draining 503 — must carry
// both a jittered Retry-After and Connection: close, so retries
// neither synchronize nor pile onto a dying connection.
func TestRefusalHeadersCloseAndRetryAfter(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	defer close(release)
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1}, blockingRunner(started, release))

	// Occupy the worker, then the one queue slot.
	if code, _, _ := submit(t, ts.URL, `{"experiments":["table1"]}`, false); code != http.StatusAccepted {
		t.Fatalf("occupant = %d", code)
	}
	<-started
	if code, _, _ := submit(t, ts.URL, `{"experiments":["table2"]}`, false); code != http.StatusAccepted {
		t.Fatalf("queued job = %d", code)
	}
	checkRefusal(t, ts.URL, `{"experiments":["table3"]}`, http.StatusTooManyRequests)

	// A draining server refuses with the same contract.
	s.mu.Lock()
	s.shutdown = true
	s.mu.Unlock()
	checkRefusal(t, ts.URL, `{"experiments":["table4"]}`, http.StatusServiceUnavailable)
	s.mu.Lock()
	s.shutdown = false // let Cleanup's Shutdown run normally
	s.mu.Unlock()
}

// checkRefusal submits a job and asserts the refusal contract: the
// expected status, a jittered Retry-After in [1,5] seconds, and a
// Connection: close on the wire (Go's transport strips the hop-by-hop
// header and reports it as resp.Close).
func checkRefusal(t *testing.T, url, spec string, wantCode int) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("submit = %d, want %d", resp.StatusCode, wantCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 5 {
		t.Fatalf("%d Retry-After = %q, want an integer in [1,5]", wantCode, resp.Header.Get("Retry-After"))
	}
	if !resp.Close {
		t.Fatalf("%d response did not ask to close the connection", wantCode)
	}
}
