package svcobs

import (
	"sync"
	"time"

	"repro/internal/obsv"
)

// sloRingBuckets is the time resolution of the rolling window: the
// window is divided into this many buckets, and expired buckets are
// recycled in place, so the tracker is fixed-memory no matter how
// long the process runs.
const sloRingBuckets = 30

// sloMinSamples is how many observations the window needs before the
// tracker will declare the budget exhausted: it stops one early
// failure from flapping a fresh server to 503.
const sloMinSamples = 10

// SLOConfig declares the service-level objectives the tracker judges
// the serving process against. The zero value disables tracking
// (NewSLO returns nil, and a nil *SLO no-ops).
type SLOConfig struct {
	// Window is the rolling evaluation window (default 5m).
	Window time.Duration
	// TargetP99 is the p99 job-latency objective; 0 disables the
	// latency objective.
	TargetP99 time.Duration
	// TargetAvailability is the availability objective (e.g. 0.99 =
	// at most 1% of requests may fail before the error budget is
	// spent); 0 disables the availability objective.
	TargetAvailability float64
}

// Enabled reports whether any objective is configured.
func (c SLOConfig) Enabled() bool {
	return c.TargetP99 > 0 || c.TargetAvailability > 0
}

func (c *SLOConfig) fillDefaults() {
	if c.Window <= 0 {
		c.Window = 5 * time.Minute
	}
}

// SLO tracks request outcomes over a rolling window and reports
// latency quantiles, availability, and error-budget burn. Safe for
// concurrent use; nil-safe (a nil *SLO ignores Record and reports a
// zero Status).
type SLO struct {
	cfg       SLOConfig
	bucketDur time.Duration
	now       func() time.Time // injectable clock for tests

	mu   sync.Mutex
	ring [sloRingBuckets]sloBucket
}

// sloBucket is one time slice of the window. epoch identifies which
// slice of absolute time the bucket currently holds; a bucket whose
// epoch has fallen out of the window is reset on next touch or read.
type sloBucket struct {
	epoch  int64
	hist   obsv.Histogram
	total  uint64
	errors uint64
}

// NewSLO builds a tracker, or returns nil when no objective is set.
func NewSLO(cfg SLOConfig) *SLO {
	if !cfg.Enabled() {
		return nil
	}
	cfg.fillDefaults()
	return &SLO{
		cfg:       cfg,
		bucketDur: cfg.Window / sloRingBuckets,
		now:       time.Now,
	}
}

// SetClock substitutes the wall clock; tests advance time manually.
func (s *SLO) SetClock(clock func() time.Time) {
	if s == nil || clock == nil {
		return
	}
	s.mu.Lock()
	s.now = clock
	s.mu.Unlock()
}

// Record adds one request outcome: its latency and whether it was
// served successfully. Rejections (queue full, open breaker) count as
// failures with zero latency — they are user-visible unavailability.
func (s *SLO) Record(latencySec float64, ok bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	epoch := s.now().UnixNano() / int64(s.bucketDur)
	b := &s.ring[epoch%sloRingBuckets]
	if b.epoch != epoch {
		b.hist.Reset()
		b.total, b.errors = 0, 0
		b.epoch = epoch
	}
	b.hist.Record(latencySec)
	b.total++
	if !ok {
		b.errors++
	}
}

// SLOStatus is the tracker's snapshot, surfaced in /metricz and (when
// degraded) /healthz.
type SLOStatus struct {
	WindowSec float64 `json:"window_sec"`
	Samples   uint64  `json:"samples"`
	Errors    uint64  `json:"errors"`
	// Availability is the fraction of successful requests in the
	// window (1 when the window is empty).
	Availability       float64 `json:"availability"`
	TargetAvailability float64 `json:"target_availability,omitempty"`
	P99Sec             float64 `json:"p99_sec"`
	TargetP99Sec       float64 `json:"target_p99_sec,omitempty"`
	// P99Met reports the latency objective (true when no latency
	// objective is configured or the window is empty).
	P99Met bool `json:"p99_met"`
	// BurnRate is how fast the availability error budget is being
	// spent: observed error rate / allowed error rate. 1.0 means
	// errors are arriving exactly as fast as the budget allows;
	// above 1 the budget is burning down.
	BurnRate float64 `json:"burn_rate"`
	// BudgetRemaining is max(0, 1 - BurnRate): the fraction of the
	// window's error budget left at the current burn.
	BudgetRemaining float64 `json:"budget_remaining"`
	// Exhausted reports the availability budget spent (burn ≥ 1 with
	// at least sloMinSamples observations); /healthz degrades to 503.
	Exhausted bool `json:"exhausted"`
}

// Status merges the live window buckets and judges the objectives.
func (s *SLO) Status() SLOStatus {
	if s == nil {
		return SLOStatus{P99Met: true, Availability: 1, BudgetRemaining: 1}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	curEpoch := s.now().UnixNano() / int64(s.bucketDur)
	oldest := curEpoch - sloRingBuckets + 1
	var merged obsv.Histogram
	var total, errors uint64
	for i := range s.ring {
		b := &s.ring[i]
		if b.total == 0 || b.epoch < oldest || b.epoch > curEpoch {
			continue
		}
		merged.Merge(&b.hist)
		total += b.total
		errors += b.errors
	}

	st := SLOStatus{
		WindowSec:          s.cfg.Window.Seconds(),
		Samples:            total,
		Errors:             errors,
		Availability:       1,
		TargetAvailability: s.cfg.TargetAvailability,
		TargetP99Sec:       s.cfg.TargetP99.Seconds(),
		P99Met:             true,
		BudgetRemaining:    1,
	}
	if total > 0 {
		st.Availability = float64(total-errors) / float64(total)
		st.P99Sec = merged.Quantile(0.99)
		if s.cfg.TargetP99 > 0 {
			st.P99Met = st.P99Sec <= s.cfg.TargetP99.Seconds()
		}
	}
	if s.cfg.TargetAvailability > 0 && total > 0 {
		allowed := 1 - s.cfg.TargetAvailability
		errRate := float64(errors) / float64(total)
		if allowed <= 0 {
			// A 100% objective has no budget: any error is full burn.
			if errors > 0 {
				st.BurnRate = 1
			}
		} else {
			st.BurnRate = errRate / allowed
		}
		st.BudgetRemaining = 1 - st.BurnRate
		if st.BudgetRemaining < 0 {
			st.BudgetRemaining = 0
		}
		st.Exhausted = total >= sloMinSamples && st.BurnRate >= 1
	}
	return st
}
