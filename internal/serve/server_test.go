package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
)

// newTestServer starts a server (with the given runner, or the real
// experiment engine when runFn is nil) behind httptest and tears both
// down with the test.
func newTestServer(t *testing.T, cfg Config, runFn RunFunc) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Run = runFn
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

// Each server fans out at its own Config.RunParallelism: two servers in
// one process keep their widths, and neither moves the engine default.
func TestRunParallelismPerServer(t *testing.T) {
	a, _ := newTestServer(t, Config{RunParallelism: 3}, nil)
	b, _ := newTestServer(t, Config{RunParallelism: 1}, nil)
	if got := a.runner.Workers(); got != 3 {
		t.Errorf("first server runs %d wide, want 3", got)
	}
	if got := b.runner.Workers(); got != 1 {
		t.Errorf("second server runs %d wide, want 1", got)
	}
	if got, want := (experiments.Runner{}).Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("zero Runner runs %d wide after constructing servers, want GOMAXPROCS %d", got, want)
	}
}

// submit POSTs a job spec and decodes the response.
func submit(t *testing.T, url, spec string, sync bool) (int, *JobStatus, http.Header) {
	t.Helper()
	target := url + "/v1/jobs"
	if sync {
		target += "?sync=1"
	}
	resp, err := http.Post(target, "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var doc JobStatus
	// 504 carries a full status doc (a timed-out job), like the 2xx
	// responses; other error codes carry the error envelope.
	if resp.StatusCode < 400 || resp.StatusCode == http.StatusGatewayTimeout {
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("response is not a status doc: %v\n%s", err, body)
		}
	}
	return resp.StatusCode, &doc, resp.Header
}

// getStatus GETs a job's status document.
func getStatus(t *testing.T, url, id string) (int, *JobStatus) {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc JobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, &doc
}

// fakeRunner returns instantly with spec-derived bytes.
func fakeRunner(_ context.Context, spec *JobSpec, _ string) (JobStatus, error) {
	return JobStatus{Result: []byte(fmt.Sprintf(`{"schema":"jadebench/v1","scale":%q}`, spec.Scale))}, nil
}

// blockingRunner blocks every run until release closes, signalling
// each start. Buffers keep signals non-blocking.
func blockingRunner(started chan struct{}, release chan struct{}) RunFunc {
	return func(context.Context, *JobSpec, string) (JobStatus, error) {
		started <- struct{}{}
		<-release
		return JobStatus{Result: []byte(`{"schema":"jadebench/v1"}`)}, nil
	}
}

// TestSyncRepeatIsCacheHitByteIdentical is the acceptance check: the
// same spec submitted twice against the real experiment engine runs
// once, and the second response is a cache hit carrying a
// byte-identical jadebench/v1 document.
func TestSyncRepeatIsCacheHitByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1}, nil)
	spec := `{"schema":"jade-job/v1","experiments":["table1"],"scale":"small"}`

	code1, doc1, _ := submit(t, ts.URL, spec, true)
	if code1 != http.StatusOK {
		t.Fatalf("first submit = %d", code1)
	}
	if doc1.Status != StatusDone || doc1.CacheHit {
		t.Fatalf("first submit: status=%s cacheHit=%v, want done/false", doc1.Status, doc1.CacheHit)
	}
	if len(doc1.Result) == 0 {
		t.Fatal("first submit carried no result")
	}

	code2, doc2, _ := submit(t, ts.URL, spec, true)
	if code2 != http.StatusOK {
		t.Fatalf("second submit = %d", code2)
	}
	if !doc2.CacheHit {
		t.Fatal("second identical submission was not a cache hit")
	}
	if doc2.SpecHash != doc1.SpecHash {
		t.Fatalf("hashes differ: %s vs %s", doc1.SpecHash, doc2.SpecHash)
	}
	if !bytes.Equal(doc1.Result, doc2.Result) {
		t.Fatal("cache hit returned a different result document")
	}
	var rep struct {
		Schema      string `json:"schema"`
		Experiments []struct {
			ID string `json:"id"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(doc2.Result, &rep); err != nil {
		t.Fatalf("result is not JSON: %v", err)
	}
	if rep.Schema != "jadebench/v1" || len(rep.Experiments) != 1 || rep.Experiments[0].ID != "table1" {
		t.Fatalf("unexpected result document: %+v", rep)
	}
}

// TestDeterministicWithoutCache pins the determinism the cache relies
// on: with caching disabled, two full executions of the same spec
// yield byte-identical documents.
func TestDeterministicWithoutCache(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CacheEntries: -1}, nil)
	spec := `{"experiments":["table1"],"runs":[{"app":"water","machine":"ipsc","procs":2}]}`

	_, doc1, _ := submit(t, ts.URL, spec, true)
	_, doc2, _ := submit(t, ts.URL, spec, true)
	if doc1.CacheHit || doc2.CacheHit {
		t.Fatal("cache hit with caching disabled")
	}
	if doc1.Status != StatusDone || doc2.Status != StatusDone {
		t.Fatalf("statuses %s/%s, want done/done (%s %s)", doc1.Status, doc2.Status, doc1.Error, doc2.Error)
	}
	if !bytes.Equal(doc1.Result, doc2.Result) {
		t.Fatal("two executions of the same canonical spec produced different bytes")
	}
}

func TestAsyncSubmitAndPoll(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{Workers: 1}, blockingRunner(started, release))

	code, doc, _ := submit(t, ts.URL, `{"experiments":["table4"]}`, false)
	if code != http.StatusAccepted {
		t.Fatalf("async submit = %d, want 202", code)
	}
	if doc.ID == "" || (doc.Status != StatusQueued && doc.Status != StatusRunning) {
		t.Fatalf("async doc = %+v", doc)
	}
	<-started
	if code, mid := getStatus(t, ts.URL, doc.ID); code != http.StatusOK || mid.Status != StatusRunning {
		t.Fatalf("mid-run status = %d/%s, want 200/running", code, mid.Status)
	}
	close(release)

	deadline := time.Now().Add(10 * time.Second)
	for {
		code, cur := getStatus(t, ts.URL, doc.ID)
		if code != http.StatusOK {
			t.Fatalf("poll = %d", code)
		}
		if cur.Status == StatusDone {
			if len(cur.Result) == 0 {
				t.Fatal("done job carried no result")
			}
			break
		}
		if cur.Status == StatusFailed {
			t.Fatalf("job failed: %s", cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", cur.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestQueueOverflowReturns429(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1}, blockingRunner(started, release))

	// A occupies the worker, B occupies the single queue slot.
	if code, _, _ := submit(t, ts.URL, `{"experiments":["table1"]}`, false); code != http.StatusAccepted {
		t.Fatalf("A = %d", code)
	}
	<-started
	if code, _, _ := submit(t, ts.URL, `{"experiments":["table2"]}`, false); code != http.StatusAccepted {
		t.Fatalf("B = %d", code)
	}
	code, _, hdr := submit(t, ts.URL, `{"experiments":["table3"]}`, false)
	if code != http.StatusTooManyRequests {
		t.Fatalf("C = %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	close(release)
}

// TestQueuedJobsRunInSubmissionOrder: a one-worker server runs the
// jobs queued behind a busy worker in the order they were submitted.
func TestQueuedJobsRunInSubmissionOrder(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	block := blockingRunner(started, release)
	var mu sync.Mutex
	var ran []string
	runFn := func(ctx context.Context, spec *JobSpec, _ string) (JobStatus, error) {
		mu.Lock()
		ran = append(ran, spec.Experiments[0])
		mu.Unlock()
		return block(ctx, spec, "")
	}
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 3}, runFn)

	ids := []string{"table1", "table2", "table3", "table4"}
	var last *JobStatus
	for i, id := range ids {
		code, doc, _ := submit(t, ts.URL, fmt.Sprintf(`{"experiments":[%q]}`, id), false)
		if code != http.StatusAccepted {
			t.Fatalf("submit %s = %d, want 202", id, code)
		}
		if i == 0 {
			<-started // the first job holds the worker; the other three queue
		}
		last = doc
	}
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, cur := getStatus(t, ts.URL, last.ID); cur.Status == StatusDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("last queued job %s never finished", last.ID)
		}
		time.Sleep(2 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(ran) != fmt.Sprint(ids) {
		t.Fatalf("jobs ran in order %v, want submission order %v", ran, ids)
	}
}

func TestSyncPaperScaleRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{}, fakeRunner)
	code, _, _ := submit(t, ts.URL, `{"experiments":["table1"],"scale":"paper"}`, true)
	if code != http.StatusBadRequest {
		t.Fatalf("sync paper-scale submit = %d, want 400", code)
	}
}

func TestBadSpecsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{}, fakeRunner)
	for name, spec := range map[string]string{
		"not json":           `{"experiments":`,
		"unknown experiment": `{"experiments":["table99"]}`,
		"unknown scale":      `{"experiments":["table1"],"scale":"huge"}`,
		"empty":              `{}`,
		"bad run":            `{"runs":[{"app":"water","machine":"cm5"}]}`,
	} {
		if code, _, _ := submit(t, ts.URL, spec, false); code != http.StatusBadRequest {
			t.Errorf("%s: code = %d, want 400", name, code)
		}
	}
}

func TestUnknownJob404(t *testing.T) {
	_, ts := newTestServer(t, Config{}, fakeRunner)
	if code, _ := getStatus(t, ts.URL, "job-999999"); code != http.StatusNotFound {
		t.Fatalf("code = %d, want 404", code)
	}
}

func TestCatalogAndHealth(t *testing.T) {
	_, ts := newTestServer(t, Config{}, fakeRunner)

	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	var cat Catalog
	if err := json.NewDecoder(resp.Body).Decode(&cat); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cat.Schema != CatalogSchema || cat.Count == 0 || len(cat.Experiments) != cat.Count {
		t.Fatalf("catalog = %+v", cat)
	}
	found := false
	for _, e := range cat.Experiments {
		if e.ID == "table4" && e.Title != "" {
			found = true
		}
	}
	if !found {
		t.Fatal("catalog is missing table4")
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" {
		t.Fatalf("healthz = %+v", h)
	}
}

func TestMetricz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueCap: 5}, fakeRunner)
	spec := `{"experiments":["table4"]}`
	submit(t, ts.URL, spec, true)
	submit(t, ts.URL, spec, true) // cache hit

	resp, err := http.Get(ts.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Schema != MetricsSchema {
		t.Fatalf("schema = %q", m.Schema)
	}
	if m.Workers != 2 || m.QueueCapacity != 5 {
		t.Fatalf("config gauges wrong: %+v", m)
	}
	if m.JobsAccepted != 2 || m.JobsCompleted != 2 || m.JobsFailed != 0 {
		t.Fatalf("job counters wrong: %+v", m)
	}
	if m.CacheHits != 1 || m.CacheHitRate <= 0 {
		t.Fatalf("cache counters wrong: %+v", m)
	}
	lat, ok := m.ExperimentLatency["table4"]
	if !ok || lat.Count != 1 {
		t.Fatalf("per-experiment latency missing: %+v", m.ExperimentLatency)
	}
	if _, ok := m.ExperimentLatency["_job"]; !ok {
		t.Fatalf("aggregate latency missing: %+v", m.ExperimentLatency)
	}
	if lat.P95Sec < lat.P50Sec {
		t.Fatalf("p95 < p50: %+v", lat)
	}
	if m.GraphCache.Capacity <= 0 {
		t.Fatalf("graph cache gauges missing: %+v", m.GraphCache)
	}
}

// A work-free job through the real experiment engine must show in
// /metricz's view of the shared task-graph cache: its two runs each
// look up the water graph (a capture on a cold cache, a replay on a
// warm one, since the cache is process-wide), and the graph stays
// cached.
func TestMetriczGraphCacheCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 5}, nil)
	before := experiments.GraphCacheStats()
	spec := `{"schema":"jade-job/v1","runs":[{"app":"water","machine":"dash","work_free":true},{"app":"water","machine":"ipsc","work_free":true}],"scale":"small"}`
	submit(t, ts.URL, spec, true)

	resp, err := http.Get(ts.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	g := m.GraphCache
	if g.Hits+g.Misses < before.Hits+before.Misses+2 || g.Entries < 1 {
		t.Fatalf("graph cache did not count the job's two lookups: before=%+v after=%+v", before, g)
	}
}

func TestJobTimeout(t *testing.T) {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	runFn := func(context.Context, *JobSpec, string) (JobStatus, error) {
		<-release
		return JobStatus{}, nil
	}
	_, ts := newTestServer(t, Config{Workers: 1, JobTimeout: 30 * time.Millisecond}, runFn)

	code, doc, hdr := submit(t, ts.URL, `{"experiments":["table1"]}`, true)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("code = %d, want 504", code)
	}
	if doc.Status != StatusFailed || !strings.Contains(doc.Error, "timeout") {
		t.Fatalf("doc = %+v, want failed with timeout error", doc)
	}
	if doc.ErrorCode != ErrCodeTimeout {
		t.Fatalf("error_code = %q, want %q", doc.ErrorCode, ErrCodeTimeout)
	}
	if got := hdr.Get("Retry-After"); got != "1" { // JobTimeout, at the 1 s floor
		t.Fatalf("Retry-After = %q, want the 30ms JobTimeout as \"1\"", got)
	}
}

func TestGracefulShutdown(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	s := New(Config{Workers: 1, QueueCap: 8, Run: blockingRunner(started, release)})
	ts := httptest.NewServer(s)
	defer ts.Close()

	_, running, _ := submit(t, ts.URL, `{"experiments":["table1"]}`, false)
	<-started
	_, queuedB, _ := submit(t, ts.URL, `{"experiments":["table2"]}`, false)
	_, queuedC, _ := submit(t, ts.URL, `{"experiments":["table3"]}`, false)

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// Queued jobs fail promptly with a clear status; the running job
	// is drained once released.
	for _, q := range []*JobStatus{queuedB, queuedC} {
		deadline := time.Now().Add(5 * time.Second)
		for {
			_, cur := getStatus(t, ts.URL, q.ID)
			if cur.Status == StatusFailed {
				if !strings.Contains(cur.Error, "shut down") {
					t.Fatalf("queued job error = %q", cur.Error)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("queued job %s still %s after shutdown", q.ID, cur.Status)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	close(release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, cur := getStatus(t, ts.URL, running.ID); cur.Status != StatusDone {
		t.Fatalf("running job = %s, want done (drained)", cur.Status)
	}

	// New submissions are refused after shutdown.
	if code, _, _ := submit(t, ts.URL, `{"experiments":["table1"]}`, false); code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown submit = %d, want 503", code)
	}
}

// TestConcurrentSubmissions drives the full submit path from many
// goroutines; under -race this is the acceptance check that server,
// queue, and cache are concurrency-clean.
func TestConcurrentSubmissions(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueCap: 256}, fakeRunner)
	specs := []string{
		`{"experiments":["table1"]}`,
		`{"experiments":["table4"],"scale":"small"}`,
		`{"runs":[{"app":"water","machine":"ipsc"}]}`,
	}
	const goroutines, perG = 8, 10
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				code, doc, _ := submit(t, ts.URL, specs[(g+i)%len(specs)], true)
				if code != http.StatusOK {
					errs <- fmt.Sprintf("code %d", code)
					return
				}
				if doc.Status != StatusDone || len(doc.Result) == 0 {
					errs <- fmt.Sprintf("status %s err %q", doc.Status, doc.Error)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	resp, err := http.Get(ts.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.JobsAccepted != goroutines*perG {
		t.Fatalf("accepted = %d, want %d", m.JobsAccepted, goroutines*perG)
	}
	if m.JobsCompleted != m.JobsAccepted || m.JobsFailed != 0 {
		t.Fatalf("counters inconsistent: %+v", m)
	}
	if m.CacheHits == 0 {
		t.Fatal("no cache hits across 80 submissions of 3 specs")
	}
}
