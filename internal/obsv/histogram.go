// Package obsv is the simulated-event stream of the machine models and
// its structured consumer. Each machine emits one typed Event per fact
// (a task created, assigned, fetching, executing; an object fetched or
// broadcast; a management span) into one nil-able Sink, which costs
// nothing when it is nil. Observer folds the stream into per-object
// communication statistics, streaming latency histograms and
// per-processor state timelines; internal/trace and internal/check
// consume the same stream.
//
// The package deliberately knows nothing about the jade runtime: it
// works in plain ints, strings, and seconds, so internal/metrics can
// embed its snapshots without creating an import cycle.
package obsv

import "math"

// Histogram bucketing: 8 sub-buckets per power of two ("octave"),
// covering 2^minExp .. 2^maxExp seconds. With values clamped into that
// range the memory is fixed (histBuckets uint64 counters) and the
// relative quantile error is bounded by one sub-bucket width (12.5%).
const (
	histSubBits = 3
	histSubs    = 1 << histSubBits // sub-buckets per octave
	histMinExp  = -40              // ~9e-13 s
	histMaxExp  = 24               // ~1.7e7 s
	histBuckets = (histMaxExp - histMinExp) * histSubs
)

// Histogram is a fixed-memory, log-bucketed streaming histogram of
// nonnegative values (seconds). The zero value is ready to use.
type Histogram struct {
	counts [histBuckets]uint64
	count  uint64
	sum    float64
	max    float64
	min    float64
}

// bucketOf maps a positive value to its bucket index.
func bucketOf(v float64) int {
	frac, exp := math.Frexp(v) // v = frac × 2^exp, frac ∈ [0.5, 1)
	sub := int((frac - 0.5) * 2 * histSubs)
	if sub < 0 {
		sub = 0
	} else if sub >= histSubs {
		sub = histSubs - 1
	}
	if exp < histMinExp {
		return 0
	}
	if exp >= histMaxExp {
		return histBuckets - 1
	}
	return (exp-histMinExp)*histSubs + sub
}

// bucketUpper returns the upper bound of a bucket.
func bucketUpper(idx int) float64 {
	exp := idx/histSubs + histMinExp
	sub := idx % histSubs
	return math.Ldexp(0.5+float64(sub+1)/(2*histSubs), exp)
}

// Record adds one observation. Negative and NaN values are recorded as
// zero (they indicate accounting bugs upstream, not real latencies).
func (h *Histogram) Record(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if v <= 0 {
		h.counts[0]++
		return
	}
	h.counts[bucketOf(v)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Max returns the largest observation (exact, not bucketed).
func (h *Histogram) Max() float64 { return h.max }

// Min returns the smallest observation (exact, not bucketed).
func (h *Histogram) Min() float64 { return h.min }

// Mean returns the arithmetic mean, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile returns an upper bound on the q-quantile (0 ≤ q ≤ 1) with
// one-sub-bucket resolution, clamped by the exact max.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			u := bucketUpper(i)
			if u > h.max {
				u = h.max
			}
			return u
		}
	}
	return h.max
}

// Reset zeroes the histogram.
func (h *Histogram) Reset() { *h = Histogram{} }

// Merge folds another histogram into this one. Bucket layouts are
// identical by construction, so the merged histogram reports exactly
// what one histogram fed both streams would have: counts and sums add,
// min/max take the extremes, and quantiles keep their one-sub-bucket
// resolution. This is how per-worker (or per-window) histograms
// aggregate into a fleet view without re-observing anything.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// Bucket is one occupied histogram bucket: Count observations at most
// UpperSec seconds.
type Bucket struct {
	UpperSec float64
	Count    uint64
}

// Buckets returns the occupied buckets in ascending upper-bound order
// (per-bucket counts, not cumulative). Renderers that need cumulative
// series — Prometheus histogram exposition — accumulate as they walk.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	for i, c := range h.counts {
		if c > 0 {
			out = append(out, Bucket{UpperSec: bucketUpper(i), Count: c})
		}
	}
	return out
}

// LatencySummary is the distribution-aware report of one histogram,
// with a stable JSON schema.
type LatencySummary struct {
	Count   uint64  `json:"count"`
	MeanSec float64 `json:"mean_sec"`
	P50Sec  float64 `json:"p50_sec"`
	P95Sec  float64 `json:"p95_sec"`
	P99Sec  float64 `json:"p99_sec"`
	P999Sec float64 `json:"p999_sec"`
	MaxSec  float64 `json:"max_sec"`
}

// Summary reports count, mean, p50/p95/p99/p999 and max.
func (h *Histogram) Summary() LatencySummary {
	return LatencySummary{
		Count:   h.count,
		MeanSec: h.Mean(),
		P50Sec:  h.Quantile(0.50),
		P95Sec:  h.Quantile(0.95),
		P99Sec:  h.Quantile(0.99),
		P999Sec: h.Quantile(0.999),
		MaxSec:  h.max,
	}
}
