package svcobs

import (
	"math"
	"testing"
	"time"
)

func newTestSLO(cfg SLOConfig) (*SLO, *fakeClock) {
	s := NewSLO(cfg)
	clock := newFakeClock()
	s.SetClock(clock.now)
	return s, clock
}

func TestSLODisabled(t *testing.T) {
	if NewSLO(SLOConfig{}) != nil {
		t.Fatal("zero config should disable the tracker")
	}
	if !(SLOConfig{TargetP99: time.Second}).Enabled() {
		t.Fatal("latency-only objective not enabled")
	}
	if !(SLOConfig{TargetAvailability: 0.99}).Enabled() {
		t.Fatal("availability-only objective not enabled")
	}
}

func TestSLOBudgetBurnAndExhaustion(t *testing.T) {
	s, _ := newTestSLO(SLOConfig{
		Window:             time.Minute,
		TargetAvailability: 0.9, // 10% error budget
	})
	// 5% errors over 20 samples: half the budget burning.
	for i := 0; i < 19; i++ {
		s.Record(0.01, i != 0) // one error
	}
	s.Record(0.01, true)
	st := s.Status()
	if st.Samples != 20 || st.Errors != 1 {
		t.Fatalf("window = %d/%d, want 20/1", st.Samples, st.Errors)
	}
	if math.Abs(st.BurnRate-0.5) > 1e-9 || st.Exhausted {
		t.Fatalf("burn = %g exhausted=%v, want 0.5/false", st.BurnRate, st.Exhausted)
	}
	if math.Abs(st.BudgetRemaining-0.5) > 1e-9 {
		t.Fatalf("budget remaining = %g, want 0.5", st.BudgetRemaining)
	}
	// Push errors past the budget: 4 more failures → 5/24 ≈ 20.8% > 10%.
	for i := 0; i < 4; i++ {
		s.Record(0.01, false)
	}
	st = s.Status()
	if st.BurnRate <= 1 || !st.Exhausted {
		t.Fatalf("burn = %g exhausted=%v, want >1/true", st.BurnRate, st.Exhausted)
	}
	if st.BudgetRemaining != 0 {
		t.Fatalf("budget remaining = %g, want clamped to 0", st.BudgetRemaining)
	}
}

func TestSLOMinSamplesGate(t *testing.T) {
	s, _ := newTestSLO(SLOConfig{Window: time.Minute, TargetAvailability: 0.99})
	// 100% failure but below the sample floor: not exhausted yet.
	for i := 0; i < sloMinSamples-1; i++ {
		s.Record(0, false)
	}
	if st := s.Status(); st.Exhausted {
		t.Fatalf("exhausted below sloMinSamples: %+v", st)
	}
	s.Record(0, false)
	if st := s.Status(); !st.Exhausted {
		t.Fatalf("not exhausted at sloMinSamples with 100%% errors: %+v", st)
	}
}

// TestSLOWindowExpiry pins the rolling window: errors older than the
// window stop counting against the budget.
func TestSLOWindowExpiry(t *testing.T) {
	s, clock := newTestSLO(SLOConfig{Window: time.Minute, TargetAvailability: 0.9})
	for i := 0; i < 10; i++ {
		s.Record(0.01, false)
	}
	if st := s.Status(); !st.Exhausted {
		t.Fatalf("budget should be exhausted: %+v", st)
	}
	// Two windows later the failures have aged out entirely.
	clock.advance(2 * time.Minute)
	st := s.Status()
	if st.Samples != 0 || st.Exhausted {
		t.Fatalf("window did not expire: %+v", st)
	}
	if st.Availability != 1 || st.BurnRate != 0 {
		t.Fatalf("empty window status = %+v", st)
	}
	// Fresh successes land in recycled buckets.
	for i := 0; i < 10; i++ {
		s.Record(0.01, true)
		clock.advance(time.Second)
	}
	st = s.Status()
	if st.Samples != 10 || st.Errors != 0 || st.Exhausted {
		t.Fatalf("post-expiry window = %+v", st)
	}
}

func TestSLOP99Objective(t *testing.T) {
	s, _ := newTestSLO(SLOConfig{Window: time.Minute, TargetP99: 100 * time.Millisecond})
	for i := 0; i < 100; i++ {
		s.Record(0.01, true)
	}
	st := s.Status()
	if !st.P99Met || st.P99Sec > 0.1 {
		t.Fatalf("fast window: %+v", st)
	}
	if st.Exhausted {
		t.Fatal("latency objective must not exhaust the availability budget")
	}
	// Two slow outliers push p99 (rank 100 of 102) over the target.
	s.Record(1.0, true)
	s.Record(1.0, true)
	st = s.Status()
	if st.P99Met {
		t.Fatalf("p99 objective still met at %gs: %+v", st.P99Sec, st)
	}
}
