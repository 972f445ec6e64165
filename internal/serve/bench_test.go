package serve

import (
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/svcobs"
)

// benchSpec builds a small real-engine job (work-free water/ipsc
// replay, ~100µs via the task-graph cache) whose hash varies with i so
// the result cache and singleflight never short-circuit the serving
// path under measurement.
func benchSpec(b *testing.B, i int) *JobSpec {
	spec := &JobSpec{
		Schema: JobSchema,
		Runs: []experiments.RunSpec{{
			App: "water", Machine: "ipsc", Procs: i%64 + 1, WorkFree: true,
		}},
	}
	if err := spec.Canonicalize(); err != nil {
		b.Fatal(err)
	}
	return spec
}

// benchServe pushes b.N jobs through the full submit→queue→execute→
// finish path in-process via RunSync.
func benchServe(b *testing.B, cfg Config) {
	b.Helper()
	cfg.Workers = 1
	cfg.CacheEntries = -1
	cfg.RunParallelism = 1
	cfg.QueueCap = 4
	// Steady-state retention: the benchmark measures the serving path,
	// not the cost of an ever-growing terminal-job backlog.
	cfg.JobRetention = 64
	s := New(cfg)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	// Warm the task-graph cache so the first iteration is not a
	// front-end build.
	if _, err := s.RunSync(context.Background(), benchSpec(b, 0), ""); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc, err := s.RunSync(context.Background(), benchSpec(b, i), "")
		if err != nil {
			b.Fatal(err)
		}
		if doc.Status != StatusDone {
			b.Fatalf("job %d: %s (%s)", i, doc.Status, doc.Error)
		}
	}
}

// BenchmarkServeJob measures one synchronous job through the serving
// path, bare versus with the full observability plane on (spans +
// JSON logging + SLO tracking). The acceptance bar for the plane is
// ≤5% overhead; ci.sh bench gates the jade-bench/v1 deltas.
func BenchmarkServeJob(b *testing.B) {
	b.Run("bare", func(b *testing.B) {
		benchServe(b, Config{})
	})
	b.Run("observed", func(b *testing.B) {
		lg, err := svcobs.NewLogger(io.Discard, "info", "json")
		if err != nil {
			b.Fatal(err)
		}
		benchServe(b, Config{
			Logger: lg,
			Spans:  true,
			SLO: svcobs.SLOConfig{
				Window:             5 * time.Minute,
				TargetAvailability: 0.999,
				TargetP99:          time.Second,
			},
		})
	})
}

// BenchmarkSpanCapture isolates the span-plane cost: one trace with
// the full lifecycle shape, no simulation behind it.
func BenchmarkSpanCapture(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := svcobs.NewTrace(fmt.Sprintf("t%d", i))
		root := tr.Root("request")
		for _, ph := range [...]string{"receive", "validate", "cache_lookup", "breaker", "enqueue"} {
			root.Child(ph).End()
		}
		q := root.Child("queue_wait")
		q.End()
		root.Child("execute").End()
		root.Child("finish").End()
		root.End()
	}
}
