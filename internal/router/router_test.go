package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

// fakeBackend is a controllable Backend for router unit tests: a
// per-call latency and a switchable failure mode. Every submit it
// answers is a finished job, because the router only submits sync.
type fakeBackend struct {
	name string

	mu      sync.Mutex
	mode    string // ChaosPass, ChaosHang, ChaosDown, fakeTimeout
	delay   time.Duration
	submits int
}

// fakeTimeout makes a fakeBackend answer every submit with a job that
// failed on its deadline, as jaded reports one.
const fakeTimeout = "timeout"

func newFakeBackend(name string) *fakeBackend {
	return &fakeBackend{name: name, mode: ChaosPass}
}

func (f *fakeBackend) setMode(mode string)      { f.mu.Lock(); f.mode = mode; f.mu.Unlock() }
func (f *fakeBackend) setDelay(d time.Duration) { f.mu.Lock(); f.delay = d; f.mu.Unlock() }
func (f *fakeBackend) submitCount() int         { f.mu.Lock(); defer f.mu.Unlock(); return f.submits }
func (f *fakeBackend) Name() string             { return f.name }
func (f *fakeBackend) state() (string, time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.mode, f.delay
}

func (f *fakeBackend) Healthz(ctx context.Context) error {
	mode, _ := f.state()
	switch mode {
	case ChaosDown:
		return &BackendError{Backend: f.name, Msg: "down"}
	case ChaosHang:
		<-ctx.Done()
		return &BackendError{Backend: f.name, Msg: "hung"}
	}
	return nil
}

func (f *fakeBackend) Submit(ctx context.Context, spec *serve.JobSpec, sync bool, traceID string) (*serve.JobStatus, error) {
	f.mu.Lock()
	f.submits++
	mode, delay := f.mode, f.delay
	f.mu.Unlock()
	switch mode {
	case ChaosDown:
		return nil, &BackendError{Backend: f.name, Code: http.StatusInternalServerError, Msg: "down"}
	case ChaosHang:
		<-ctx.Done()
		return nil, &BackendError{Backend: f.name, Msg: "hung: " + ctx.Err().Error()}
	case fakeTimeout:
		return &serve.JobStatus{
			Schema: serve.StatusSchema, ID: f.name + "-sync", Status: serve.StatusFailed, SpecHash: spec.Hash(),
			Error: "timeout: job exceeded the deadline", ErrorCode: serve.ErrCodeTimeout,
		}, nil
	}
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, &BackendError{Backend: f.name, Msg: ctx.Err().Error()}
		}
	}
	return &serve.JobStatus{
		Schema: serve.StatusSchema, ID: f.name + "-sync", Status: serve.StatusDone,
		SpecHash: spec.Hash(), Result: json.RawMessage(fmt.Sprintf(`{"served_by":%q}`, f.name)),
	}, nil
}

// testRouter builds a router over fake backends with the background
// prober disabled (tests drive ProbeNow / passive outcomes directly)
// and fast hedging.
func testRouter(t *testing.T, mut func(*Config), names ...string) (*Router, map[string]*fakeBackend) {
	t.Helper()
	fakes := map[string]*fakeBackend{}
	backends := make([]Backend, 0, len(names))
	for _, n := range names {
		f := newFakeBackend(n)
		fakes[n] = f
		backends = append(backends, f)
	}
	cfg := Config{
		HedgeAfter:     10 * time.Millisecond,
		HedgeMin:       time.Millisecond,
		RequestTimeout: 10 * time.Second,
		Health:         HealthConfig{ProbeInterval: -1, FallThreshold: 3, RiseThreshold: 2, EjectCooldown: time.Hour},
	}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := NewRouter(cfg, backends...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt, fakes
}

func testSpec(t *testing.T, id string) *serve.JobSpec {
	t.Helper()
	spec := &serve.JobSpec{Experiments: []string{id}}
	if err := spec.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	return spec
}

func servedBy(t *testing.T, doc *serve.JobStatus) string {
	t.Helper()
	var body struct {
		ServedBy string `json:"served_by"`
	}
	if err := json.Unmarshal(doc.Result, &body); err != nil {
		t.Fatalf("decode result %s: %v", doc.Result, err)
	}
	return body.ServedBy
}

// TestRouterRoutesToPrimary: with everyone healthy a key lands on its
// ring primary, and repeated requests stay there (stable placement).
func TestRouterRoutesToPrimary(t *testing.T) {
	rt, _ := testRouter(t, nil, "n1", "n2", "n3")
	spec := testSpec(t, "table1")
	primary := rt.Ring().Primary(spec.Hash())
	for i := 0; i < 3; i++ {
		res := rt.Do(context.Background(), spec, true, "")
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Backend != primary {
			t.Fatalf("request %d served by %s, want ring primary %s", i, res.Backend, primary)
		}
		if got := servedBy(t, res.Doc); got != primary {
			t.Fatalf("result says served_by=%s, want %s", got, primary)
		}
	}
	c := rt.Counters()
	if c.Routed != 3 || c.Failovers != 0 || c.Hedged != 0 {
		t.Fatalf("counters = %+v, want 3 routed and nothing else", c)
	}
}

// TestRouterHedgeWinsAgainstHungPrimary: a hung primary never errors,
// but the hedge fires at the (short) hedge delay and the replica
// answers, so no request waits on the hang. Hedge wins degrade the
// primary and prime its failure streak to one below the fall
// threshold — never ejecting on their own, since a lost race can also
// mean the replica simply had the key cached — and a single failed
// health probe then confirms the hang and ejects it.
func TestRouterHedgeWinsAgainstHungPrimary(t *testing.T) {
	rt, fakes := testRouter(t, func(c *Config) {
		c.Health.ProbeTimeout = 10 * time.Millisecond
		// The replica's hedge delay is its p95 clamped to HedgeMin; a
		// floor as long as HedgeAfter keeps a scheduler hiccup on the
		// post-ejection request from letting the hedge reach seq[2]
		// before the replica answers.
		c.HedgeMin = c.HedgeAfter
	}, "n1", "n2", "n3")
	spec := testSpec(t, "table1")
	seq := rt.Ring().Sequence(spec.Hash())
	primary, replica := seq[0], seq[1]
	fakes[primary].setMode(ChaosHang)

	for i := 0; i < 3; i++ {
		res := rt.Do(context.Background(), spec, true, "")
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		if !res.Hedged || !res.HedgeWin {
			t.Fatalf("request %d: hedged=%v hedgeWin=%v, want both true", i, res.Hedged, res.HedgeWin)
		}
		if res.Backend != replica {
			t.Fatalf("request %d served by %s, want hedge replica %s", i, res.Backend, replica)
		}
	}
	st := rt.HealthSnapshot()[primary]
	if st.State != StateDegraded {
		t.Fatalf("primary after 3 hedge wins is %q, want degraded (suspicion alone must not eject)", st.State)
	}
	if st.ConsecutiveFails != 2 {
		t.Fatalf("suspicion streak = %d, want capped at FallThreshold-1 = 2", st.ConsecutiveFails)
	}
	c := rt.Counters()
	if c.Hedged != 3 || c.HedgeWins != 3 {
		t.Fatalf("counters = %+v, want 3 hedged / 3 hedge wins", c)
	}
	if c.Failovers != 0 {
		t.Fatalf("hedge wins were counted as failovers: %+v", c)
	}

	// One active probe round: the hung Healthz times out, which is the
	// confirming hard failure on top of the primed streak.
	rt.ProbeNow()
	if st := rt.HealthSnapshot()[primary]; st.State != StateEjected {
		t.Fatalf("primary after probe failure is %q, want ejected", st.State)
	}

	// The ejected primary is now skipped outright: the replica serves
	// as first choice, which is a failover (key remapped), and the hung
	// backend sees no new submissions.
	before := fakes[primary].submitCount()
	res := rt.Do(context.Background(), spec, true, "")
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Backend != replica {
		t.Fatalf("post-ejection request served by %s, want %s", res.Backend, replica)
	}
	if got := fakes[primary].submitCount(); got != before {
		t.Fatalf("ejected backend still received %d new submissions", got-before)
	}
	if c := rt.Counters(); c.Failovers != 1 || c.Ejections != 1 {
		t.Fatalf("counters after remap = %+v, want 1 failover / 1 ejection", c)
	}
}

// TestRouterFailoverOnDownPrimary: a failing primary is retried past
// immediately (no hedge delay involved) and ejected after the fall
// threshold; requests keep succeeding throughout.
func TestRouterFailoverOnDownPrimary(t *testing.T) {
	rt, fakes := testRouter(t, nil, "n1", "n2", "n3")
	spec := testSpec(t, "table2")
	seq := rt.Ring().Sequence(spec.Hash())
	primary := seq[0]
	fakes[primary].setMode(ChaosDown)

	for i := 0; i < 4; i++ {
		res := rt.Do(context.Background(), spec, true, "")
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		if res.Backend == primary {
			t.Fatalf("request %d served by the down primary", i)
		}
	}
	if st := rt.HealthSnapshot()[primary]; st.State != StateEjected {
		t.Fatalf("down primary is %q, want ejected", st.State)
	}
	if c := rt.Counters(); c.Failovers != 4 || c.Ejections != 1 {
		t.Fatalf("counters = %+v, want 4 failovers / 1 ejection", c)
	}
}

// TestRouterStaleServeWhenAllDown: once every replica is gone, cached
// keys are served stale (200 + Stale flag) instead of failing, and
// never-cached keys get a clean 503.
func TestRouterStaleServeWhenAllDown(t *testing.T) {
	rt, fakes := testRouter(t, nil, "n1", "n2")
	spec := testSpec(t, "table1")

	res := rt.Do(context.Background(), spec, true, "")
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	liveResult := string(res.Doc.Result)

	for _, f := range fakes {
		f.setMode(ChaosDown)
	}
	// Each request walks both replicas (one failure apiece) and then
	// degrades to the stale cache — the cached key never sees a 5xx,
	// even while the failures are still accumulating toward ejection.
	for i := 0; i < 3; i++ {
		if res := rt.Do(context.Background(), spec, true, ""); res.Err != nil || !res.Stale {
			t.Fatalf("request %d while dying: stale=%v err=%v, want stale success", i, res.Stale, res.Err)
		}
	}
	for name := range fakes {
		if st := rt.HealthSnapshot()[name]; st.State != StateEjected {
			t.Fatalf("backend %s is %q after repeated failures, want ejected", name, st.State)
		}
	}

	res = rt.Do(context.Background(), spec, true, "")
	if res.Err != nil {
		t.Fatalf("stale serve failed: %v", res.Err)
	}
	if !res.Stale || res.Code != http.StatusOK {
		t.Fatalf("stale=%v code=%d, want stale 200", res.Stale, res.Code)
	}
	if !res.Doc.CacheHit || string(res.Doc.Result) != liveResult {
		t.Fatalf("stale doc = cacheHit=%v result=%s, want the cached live result", res.Doc.CacheHit, res.Doc.Result)
	}

	cold := testSpec(t, "table2")
	res = rt.Do(context.Background(), cold, true, "")
	if res.Err == nil || res.Code != http.StatusServiceUnavailable {
		t.Fatalf("uncached key while down: code=%d err=%v, want 503", res.Code, res.Err)
	}
	c := rt.Counters()
	if c.StaleServed != 4 {
		t.Fatalf("counters = %+v, want 4 stale serves (3 while dying, 1 after)", c)
	}
	if c.Unroutable != 2 || c.Ejections != 2 {
		t.Fatalf("counters = %+v, want 2 unroutable / 2 ejections", c)
	}
}

// TestRouterRecoveryThroughProbes: an ejected backend comes back after
// its cooldown via probing — RiseThreshold consecutive probe successes
// — and resumes owning its keys.
func TestRouterRecoveryThroughProbes(t *testing.T) {
	rt, fakes := testRouter(t, func(c *Config) {
		c.Health.EjectCooldown = time.Millisecond
	}, "n1", "n2", "n3")
	spec := testSpec(t, "table3")
	primary := rt.Ring().Primary(spec.Hash())

	fakes[primary].setMode(ChaosDown)
	for i := 0; i < 3; i++ {
		rt.Do(context.Background(), spec, true, "")
	}
	if st := rt.HealthSnapshot()[primary]; st.State != StateEjected {
		t.Fatalf("primary is %q, want ejected", st.State)
	}

	fakes[primary].setMode(ChaosPass)
	time.Sleep(5 * time.Millisecond) // let the cooldown elapse
	rt.ProbeNow()                    // ejected → probing, first success
	if st := rt.HealthSnapshot()[primary]; st.State != StateProbing {
		t.Fatalf("after first probe round primary is %q, want probing", st.State)
	}
	rt.ProbeNow() // second success: probing → healthy
	if st := rt.HealthSnapshot()[primary]; st.State != StateHealthy {
		t.Fatalf("after second probe round primary is %q, want healthy", st.State)
	}
	res := rt.Do(context.Background(), spec, true, "")
	if res.Err != nil || res.Backend != primary {
		t.Fatalf("recovered primary not serving its key: backend=%s err=%v", res.Backend, res.Err)
	}
}

// TestRouterClientErrorNoFailover: a 4xx from the primary is the
// client's problem — no failover attempt, no health penalty.
func TestRouterClientErrorNoFailover(t *testing.T) {
	if failoverEligible(&BackendError{Code: http.StatusBadRequest}) {
		t.Fatal("400 marked failover-eligible")
	}
	if !failoverEligible(&BackendError{Code: http.StatusTooManyRequests}) {
		t.Fatal("429 must fail over (another replica may have queue room)")
	}
	if !failoverEligible(&BackendError{Code: 0}) || !failoverEligible(&BackendError{Code: 502}) {
		t.Fatal("transport errors and 5xx must fail over")
	}
	if healthPenalty(&BackendError{Code: http.StatusTooManyRequests}) {
		t.Fatal("429 charged as a health failure (backend is alive, just full)")
	}
	if !healthPenalty(&BackendError{Code: 500}) || !healthPenalty(&BackendError{Code: 0}) {
		t.Fatal("5xx/transport must be health failures")
	}
}

// TestRouterBoundedLoadDemotion: a key's primary is demoted behind the
// next replica once its inflight count reaches 2×mean+1 over the
// routable backends, and not one request below; Do then routes the
// request to that replica and counts the shift.
func TestRouterBoundedLoadDemotion(t *testing.T) {
	rt, _ := testRouter(t, nil, "n1", "n2", "n3")
	spec := testSpec(t, "table1")
	hash := spec.Hash()
	seq := rt.ring.Sequence(hash)
	primary, next, third := seq[0], seq[1], seq[2]
	setLoad := func(p, n, th int) {
		rt.mu.Lock()
		rt.inflight[primary], rt.inflight[next], rt.inflight[third] = p, n, th
		rt.mu.Unlock()
	}
	for _, c := range []struct {
		primary, others int
		demoted         bool
	}{
		{2, 0, false}, // mean 2/3: bound 7/3
		{3, 0, true},  // mean 1: bound 3
		{6, 1, false}, // mean 8/3: bound 19/3
		{7, 1, true},  // mean 3: bound 7
	} {
		setLoad(c.primary, c.others, c.others)
		cands, shifted := rt.candidates(hash)
		want := []string{primary, next, third}
		if c.demoted {
			want = []string{next, primary, third}
		}
		if shifted != c.demoted || fmt.Sprint(cands) != fmt.Sprint(want) {
			t.Errorf("inflight %d/%d/%d: candidates %v shifted=%v, want %v shifted=%v",
				c.primary, c.others, c.others, cands, shifted, want, c.demoted)
		}
	}

	setLoad(3, 0, 0)
	res := rt.Do(context.Background(), spec, true, "")
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := servedBy(t, res.Doc); got != next {
		t.Fatalf("demoted request served by %s, want the next replica %s", got, next)
	}
	if got := rt.Counters().LoadShifts; got != 1 {
		t.Fatalf("load_shifts = %d, want 1", got)
	}
}
