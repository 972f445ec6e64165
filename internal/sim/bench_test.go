package sim

import "testing"

// BenchmarkEngineEvents measures raw event throughput with a
// heap-heavy schedule (97 distinct times, out of order).
func BenchmarkEngineEvents(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		for k := 0; k < 4096; k++ {
			e.At(Time(k%97), func() {})
		}
		e.Run()
	}
}

// BenchmarkEngineCascade measures the steady-state cost of one event
// on the cascade path (each event schedules the next, the pattern
// machine models produce). One op is one event; the engine and the
// closure are allocated outside the timed region, so allocs/op
// reports the per-event allocation count — which must be zero: the
// ring bucket recycles its slots and the heap is never touched.
func BenchmarkEngineCascade(b *testing.B) {
	b.ReportAllocs()
	e := New()
	remaining := b.N
	var step func()
	step = func() {
		remaining--
		if remaining > 0 {
			e.After(1, step)
		}
	}
	e.At(0, step)
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineCascade4096 is the pre-optimization shape of the
// cascade benchmark (one op = a fresh engine running a 4096-event
// chain), kept for apples-to-apples comparison across revisions.
func BenchmarkEngineCascade4096(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		n := 4096
		var step func()
		step = func() {
			n--
			if n > 0 {
				e.After(1, step)
			}
		}
		e.At(0, step)
		e.Run()
	}
}

// BenchmarkEngineMixed measures a schedule-heavy mixed workload: a
// cascade backbone interleaved with same-time bursts and scattered
// future events, exercising the bucket, near and the heap
// together the way a machine model with messages in flight does.
func BenchmarkEngineMixed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		n := 1024
		var step func()
		step = func() {
			n--
			// Same-time burst: delivery fan-out at the current tick.
			for k := 0; k < 3; k++ {
				e.At(e.Now(), func() {})
			}
			// Scattered future events: acknowledgements in flight.
			e.After(Time(1+n%7), func() {})
			e.After(Time(2+n%13), func() {})
			if n > 0 {
				e.After(1, step)
			}
		}
		e.At(0, step)
		e.Run()
	}
}

// BenchmarkProcessorSubmit measures resource reservation throughput.
func BenchmarkProcessorSubmit(b *testing.B) {
	e := New()
	p := NewProcessor(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Submit(0, 1, nil)
	}
}

// TestCascadePathZeroAllocs is the allocation regression gate behind
// BenchmarkEngineCascade: once warm, scheduling and firing a cascade
// performs no heap allocations at all.
func TestCascadePathZeroAllocs(t *testing.T) {
	e := New()
	n := 0
	var step func()
	step = func() {
		n--
		if n > 0 {
			e.After(1, step)
		}
	}
	// Warm the ring so growth is out of the measured region.
	n = 64
	e.At(0, step)
	e.Run()

	allocs := testing.AllocsPerRun(20, func() {
		n = 1024
		e.At(e.Now(), step)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("cascade path allocates %.1f times per run, want 0", allocs)
	}
}
