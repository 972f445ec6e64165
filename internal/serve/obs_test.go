package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/svcobs"
)

// obsConfig returns a config with the full observability plane on,
// logging into the returned buffer. The buffer is mutex-guarded via
// syncBuffer because the server logs from worker goroutines.
func obsConfig(t *testing.T, cfg Config) (Config, *syncBuffer) {
	t.Helper()
	buf := &syncBuffer{}
	lg, err := svcobs.NewLogger(buf, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Logger = lg
	cfg.Spans = true
	return cfg, buf
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing logs.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// records decodes every JSON log line whose msg matches.
func (b *syncBuffer) records(t *testing.T, msg string) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		if rec["msg"] == msg {
			out = append(out, rec)
		}
	}
	return out
}

// TestTraceEndToEnd is the tentpole acceptance check: one sync job
// yields a jade-span/v1 document with at least five internally
// consistent lifecycle phases, and the same trace ID appears in the
// response header, the status document, the span document, and the
// access log.
func TestTraceEndToEnd(t *testing.T) {
	cfg, buf := obsConfig(t, Config{Workers: 1, CacheEntries: -1})
	_, ts := newTestServer(t, cfg, fakeRunner)

	const traceID = "trace-cafe42"
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs?sync=1",
		strings.NewReader(`{"schema":"jade-job/v1","experiments":["table1"],"scale":"small"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(svcobs.TraceHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit = %d\n%s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(svcobs.TraceHeader); got != traceID {
		t.Fatalf("%s header = %q, want %q echoed back", svcobs.TraceHeader, got, traceID)
	}
	var doc JobStatus
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.TraceID != traceID {
		t.Fatalf("status doc trace_id = %q, want %q", doc.TraceID, traceID)
	}

	// The span document for the job.
	tresp, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace endpoint = %d", tresp.StatusCode)
	}
	var span svcobs.Doc
	if err := json.NewDecoder(tresp.Body).Decode(&span); err != nil {
		t.Fatal(err)
	}
	if span.Schema != svcobs.SpanSchema || span.TraceID != traceID || span.JobID != doc.ID {
		t.Fatalf("span doc header = schema=%q trace=%q job=%q", span.Schema, span.TraceID, span.JobID)
	}

	// At least five lifecycle phases, all directly under the root.
	phases := span.PhaseDurations()
	for _, want := range []string{"receive", "validate", "cache_lookup", "queue_wait", "execute", "finish"} {
		if _, ok := phases[want]; !ok {
			t.Errorf("phase %q missing from trace: %v", want, phases)
		}
	}
	if len(phases) < 5 {
		t.Fatalf("only %d phases: %v", len(phases), phases)
	}

	// Internal consistency: every child nests inside the root, and the
	// serial phases cannot sum past the request total.
	total := span.Root.DurationSec
	for name, d := range phases {
		if d < 0 || d > total {
			t.Errorf("phase %s duration %g outside request total %g", name, d, total)
		}
	}
	if phases["queue_wait"]+phases["execute"] > total {
		t.Fatalf("queue_wait (%g) + execute (%g) exceed the request total (%g)",
			phases["queue_wait"], phases["execute"], total)
	}
	for _, c := range span.Root.Children {
		if c.StartUnixNs < span.Root.StartUnixNs {
			t.Errorf("child %s starts before the root", c.Name)
		}
	}
	// The execute phase times the one runner call: it has no sub-spans.
	if ex := span.Root.Phase("execute"); ex == nil || len(ex.Children) != 0 {
		t.Fatalf("execute phase missing or not a leaf: %+v", span.Root.Children)
	}

	// Perfetto rendering of the same trace is valid trace-event JSON.
	presp, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/trace?format=perfetto")
	if err != nil {
		t.Fatal(err)
	}
	pbody, _ := io.ReadAll(presp.Body)
	presp.Body.Close()
	var pf struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(pbody, &pf); err != nil {
		t.Fatalf("perfetto export is not JSON: %v\n%s", err, pbody)
	}
	if len(pf.TraceEvents) < 5 {
		t.Fatalf("perfetto export has %d events, want the span tree", len(pf.TraceEvents))
	}

	// The access log line for the submit carries the same trace ID and
	// the job ID; the job lifecycle line correlates on trace_id too.
	var accessSeen bool
	for _, rec := range buf.records(t, "request") {
		if rec["path"] == "/v1/jobs" {
			accessSeen = true
			if rec["trace_id"] != traceID {
				t.Fatalf("access log trace_id = %v, want %q", rec["trace_id"], traceID)
			}
			if rec["job_id"] != doc.ID {
				t.Fatalf("access log job_id = %v, want %q", rec["job_id"], doc.ID)
			}
			if _, ok := rec["phases_sec"].(map[string]any); !ok {
				t.Fatalf("access log missing phases_sec: %v", rec)
			}
		}
	}
	if !accessSeen {
		t.Fatalf("no access log line for the submit:\n%s", buf.String())
	}
	// The server writes the lifecycle line before it wakes the sync
	// waiter, so it is in the log by the time the response is.
	jobRecs := buf.records(t, "job finished")
	if len(jobRecs) != 1 || jobRecs[0]["trace_id"] != traceID || jobRecs[0]["job_id"] != doc.ID {
		t.Fatalf("job lifecycle log = %v", jobRecs)
	}
}

// TestTraceIDGeneratedWhenAbsent: without a caller-supplied header the
// server mints a trace ID and still echoes it.
func TestTraceIDGeneratedWhenAbsent(t *testing.T) {
	cfg, _ := obsConfig(t, Config{Workers: 1})
	_, ts := newTestServer(t, cfg, fakeRunner)
	code, doc, hdr := submit(t, ts.URL, `{"schema":"jade-job/v1","experiments":["table1"],"scale":"small"}`, true)
	if code != http.StatusOK {
		t.Fatalf("submit = %d", code)
	}
	got := hdr.Get(svcobs.TraceHeader)
	if got == "" || svcobs.CleanTraceID(got) != got {
		t.Fatalf("generated trace header = %q", got)
	}
	if doc.TraceID != got {
		t.Fatalf("doc trace_id %q != header %q", doc.TraceID, got)
	}
}

// TestTraceEndpointWithoutSpans: span capture off → the trace
// endpoint 404s with a clear message, and status docs omit trace_id.
func TestTraceEndpointWithoutSpans(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1}, fakeRunner)
	code, doc, _ := submit(t, ts.URL, `{"schema":"jade-job/v1","experiments":["table1"],"scale":"small"}`, true)
	if code != http.StatusOK {
		t.Fatalf("submit = %d", code)
	}
	if doc.TraceID != "" {
		t.Fatalf("trace_id = %q with spans disabled", doc.TraceID)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace endpoint = %d, want 404", resp.StatusCode)
	}
}

// TestRunSyncInProcess: the in-process API takes the same admission
// path and yields the same artifacts as an HTTP submission.
func TestRunSyncInProcess(t *testing.T) {
	cfg, _ := obsConfig(t, Config{Workers: 1})
	cfg.Run = fakeRunner
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	spec := &JobSpec{Schema: JobSchema, Experiments: []string{"table1"}, Scale: "small"}
	doc, err := s.RunSync(context.Background(), spec, "bench-1")
	if err != nil {
		t.Fatal(err)
	}
	if doc.Status != StatusDone || doc.TraceID != "bench-1" {
		t.Fatalf("doc = status=%s trace=%s", doc.Status, doc.TraceID)
	}
	span, err := s.TraceDoc(doc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if span.TraceID != "bench-1" || span.Root.Phase("execute") == nil {
		t.Fatalf("span doc = %+v", span)
	}
}

// TestMetricsSnapshotNeverTorn hammers /metricz while jobs flow and
// asserts no scrape ever observes terminal counters running ahead of
// the accepted counter — the one-lock snapshot guarantee.
func TestMetricsSnapshotNeverTorn(t *testing.T) {
	s := New(Config{Workers: 4, QueueCap: 256, CacheEntries: -1, Run: fakeRunner})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				spec := &JobSpec{Schema: JobSchema, Experiments: []string{"table1"}, Scale: "small"}
				spec.Runs = []experiments.RunSpec{{App: "water", Machine: "ipsc", Procs: (g*16+i)%64 + 1}}
				if err := spec.Canonicalize(); err != nil {
					t.Error(err)
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				_, _ = s.RunSync(ctx, spec, "")
				cancel()
			}
		}(g)
	}

	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		m := s.metricsDoc()
		if done := m.JobsCompleted + m.JobsFailed; done > m.JobsAccepted {
			t.Fatalf("torn scrape: completed(%d)+failed(%d) > accepted(%d)",
				m.JobsCompleted, m.JobsFailed, m.JobsAccepted)
		}
	}
	close(stop)
	wg.Wait()
	// And after quiescing, accounting balances exactly.
	m := s.metricsDoc()
	if m.JobsCompleted+m.JobsFailed+int64(m.QueueDepth) < m.JobsAccepted-int64(m.BusyWorkers) {
		t.Fatalf("final accounting off: %+v", m)
	}
}

// TestBreakerTransitionsObservable drives a circuit through
// closed→open→half-open→closed against a live server and asserts each
// transition produced exactly one counter increment and one
// structured log line.
func TestBreakerTransitionsObservable(t *testing.T) {
	var fail bool
	var mu sync.Mutex
	runFn := func(context.Context, *JobSpec, string) (JobStatus, error) {
		mu.Lock()
		defer mu.Unlock()
		if fail {
			return JobStatus{}, errors.New("engine exploded")
		}
		return JobStatus{Result: []byte(`{"schema":"jadebench/v1"}`)}, nil
	}
	cfg, buf := obsConfig(t, Config{
		Workers: 1, CacheEntries: -1,
		BreakerThreshold: 2, BreakerCooldown: 50 * time.Millisecond,
	})
	s, ts := newTestServer(t, cfg, runFn)

	setFail := func(v bool) { mu.Lock(); fail = v; mu.Unlock() }
	spec := func(i int) string {
		return fmt.Sprintf(`{"schema":"jade-job/v1","runs":[{"app":"water","machine":"ipsc","procs":%d}]}`, i)
	}

	setFail(true)
	for i := 1; i <= 2; i++ {
		code, doc, _ := submit(t, ts.URL, spec(i), true)
		if code != http.StatusOK || doc.Status != StatusFailed {
			t.Fatalf("failing submit %d = %d %s", i, code, doc.Status)
		}
	}
	// Threshold reached: circuit open, submissions refused.
	if code, _, _ := submit(t, ts.URL, spec(3), true); code != http.StatusServiceUnavailable {
		t.Fatalf("open-circuit submit = %d, want 503", code)
	}
	// Cooldown elapses; the successful half-open probe closes it.
	setFail(false)
	time.Sleep(60 * time.Millisecond)
	if code, doc, _ := submit(t, ts.URL, spec(4), true); code != http.StatusOK || doc.Status != StatusDone {
		t.Fatalf("probe submit = %d %s", code, doc.Status)
	}

	m := s.metricsDoc()
	if m.BreakerTransitions != 3 {
		t.Fatalf("breaker_transitions = %d, want 3 (closed→open→half-open→closed)", m.BreakerTransitions)
	}
	recs := buf.records(t, "breaker transition")
	if len(recs) != 3 {
		t.Fatalf("breaker transition log lines = %d, want 3:\n%s", len(recs), buf.String())
	}
	wantSeq := [][2]string{
		{BreakerClosed, BreakerOpen},
		{BreakerOpen, BreakerHalfOpen},
		{BreakerHalfOpen, BreakerClosed},
	}
	for i, rec := range recs {
		if rec["experiment"] != "_runs" || rec["from"] != wantSeq[i][0] || rec["to"] != wantSeq[i][1] {
			t.Fatalf("transition %d = %v, want %v", i, rec, wantSeq[i])
		}
	}
	// The Prometheus view agrees.
	prom := scrapeProm(t, ts.URL)
	if !strings.Contains(prom, "jaded_breaker_transitions_total 3") {
		t.Fatalf("prom missing transition counter:\n%s", prom)
	}
}

// scrapeProm fetches /metricz?format=prom and checks the content type.
func scrapeProm(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metricz?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != promContentType {
		t.Fatalf("content type = %q, want %q", ct, promContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestPromExposition pins the Prometheus rendering of /metricz: the
// counter families exist, histograms render as cumulative series, and
// the JSON view stays available and consistent on the same server.
func TestPromExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CacheEntries: 8}, fakeRunner)
	spec := `{"schema":"jade-job/v1","experiments":["table1"],"scale":"small"}`
	for i := 0; i < 2; i++ { // second submit is a cache hit
		if code, _, _ := submit(t, ts.URL, spec, true); code != http.StatusOK {
			t.Fatalf("submit = %d", code)
		}
	}
	prom := scrapeProm(t, ts.URL)
	for _, want := range []string{
		"# TYPE jaded_jobs_accepted_total counter\n",
		"jaded_jobs_accepted_total 2\n",
		"jaded_jobs_completed_total 2\n",
		"jaded_result_cache_hits_total 1\n",
		"# TYPE jaded_queue_depth gauge\n",
		"# TYPE jaded_job_latency_seconds histogram\n",
		`jaded_job_latency_seconds_bucket{experiment="table1",le="+Inf"} 1`,
		`jaded_job_latency_seconds_count{experiment="_job"} 1`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prom output missing %q", want)
		}
	}
	if t.Failed() {
		t.Fatalf("prom output:\n%s", prom)
	}
	// The JSON document agrees with the text one.
	m := metricz(t, ts.URL)
	if m.JobsAccepted != 2 || m.CacheHits != 1 {
		t.Fatalf("JSON metricz = accepted %d, hits %d", m.JobsAccepted, m.CacheHits)
	}
}

// TestHealthDegradesWhenBudgetExhausted: enough failures inside the
// SLO window flip /healthz to 503 "degraded"; /metricz exposes the
// burn rate in both formats.
func TestHealthDegradesWhenBudgetExhausted(t *testing.T) {
	runFn := func(context.Context, *JobSpec, string) (JobStatus, error) {
		return JobStatus{}, errors.New("engine down")
	}
	_, ts := newTestServer(t, Config{
		Workers: 1, CacheEntries: -1,
		BreakerThreshold: -1, // keep submissions flowing
		SLO: svcobs.SLOConfig{
			Window:             time.Minute,
			TargetAvailability: 0.99,
			TargetP99:          time.Second,
		},
	}, runFn)

	health := func() (int, Health) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, h
	}

	if code, h := health(); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("fresh health = %d %q", code, h.Status)
	}
	// The tracker judges the budget only from its tenth sample on.
	for i := 0; i < 10; i++ {
		spec := fmt.Sprintf(`{"schema":"jade-job/v1","runs":[{"app":"water","machine":"ipsc","procs":%d}]}`, i+1)
		if code, doc, _ := submit(t, ts.URL, spec, true); code != http.StatusOK || doc.Status != StatusFailed {
			t.Fatalf("submit %d = %d %s", i, code, doc.Status)
		}
	}
	code, h := health()
	if code != http.StatusServiceUnavailable || h.Status != "degraded" {
		t.Fatalf("exhausted health = %d %q, want 503 degraded", code, h.Status)
	}
	if h.SLO == nil || !h.SLO.Exhausted || h.SLO.BurnRate < 1 {
		t.Fatalf("health SLO = %+v", h.SLO)
	}
	m := metricz(t, ts.URL)
	if m.SLO == nil || !m.SLO.Exhausted {
		t.Fatalf("metricz SLO = %+v", m.SLO)
	}
	if prom := scrapeProm(t, ts.URL); !strings.Contains(prom, "jaded_slo_budget_exhausted 1") {
		t.Fatalf("prom missing exhausted gauge:\n%s", prom)
	}
}

// TestObservabilityOffIsInert: with the plane off the server neither
// logs nor traces, but a response still carries a minted trace ID.
func TestObservabilityOffIsInert(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1}, fakeRunner)
	if s.obsEnabled() {
		t.Fatal("obsEnabled with zero config")
	}
	code, _, hdr := submit(t, ts.URL, `{"schema":"jade-job/v1","experiments":["table1"],"scale":"small"}`, true)
	if code != http.StatusOK {
		t.Fatalf("submit = %d", code)
	}
	if got := hdr.Get(svcobs.TraceHeader); got == "" || svcobs.CleanTraceID(got) != got {
		t.Fatalf("trace header = %q with observability off, want a minted ID", got)
	}
}
