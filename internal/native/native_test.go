package native

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jade"
)

func TestSerialChainOrdered(t *testing.T) {
	m := New(4)
	defer m.Close()
	rt := jade.New(m, jade.Config{})
	o := rt.Alloc("x", 8, new(int64))
	v := o.Data.(*int64)
	const n = 200
	for i := 1; i <= n; i++ {
		i := int64(i)
		rt.WithOnly(func(s *jade.Spec) { s.RdWr(o) }, 0, func() {
			// Each task sees the previous task's value exactly.
			if *v != i-1 {
				panic("ordering violated")
			}
			*v = i
		})
	}
	rt.Finish()
	if *v != n {
		t.Fatalf("v = %d, want %d", *v, n)
	}
}

func TestIndependentTasksRunConcurrently(t *testing.T) {
	m := New(4)
	defer m.Close()
	rt := jade.New(m, jade.Config{})
	var inFlight, maxInFlight int64
	objs := make([]*jade.Object, 16)
	for i := range objs {
		objs[i] = rt.Alloc("o", 8, nil)
	}
	gate := make(chan struct{})
	for _, o := range objs {
		o := o
		rt.WithOnly(func(s *jade.Spec) { s.Wr(o) }, 0, func() {
			cur := atomic.AddInt64(&inFlight, 1)
			for {
				old := atomic.LoadInt64(&maxInFlight)
				if cur <= old || atomic.CompareAndSwapInt64(&maxInFlight, old, cur) {
					break
				}
			}
			<-gate
			atomic.AddInt64(&inFlight, -1)
		})
	}
	// Hold the gate until at least two tasks are demonstrably running
	// at once (with a timeout escape so a regression fails rather than
	// hangs).
	deadline := time.Now().Add(5 * time.Second)
	for atomic.LoadInt64(&inFlight) < 2 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	close(gate)
	rt.Finish()
	if atomic.LoadInt64(&maxInFlight) < 2 {
		t.Fatalf("maxInFlight = %d, want >= 2 (no real concurrency)", maxInFlight)
	}
}

func TestReadersShareWritersExclude(t *testing.T) {
	m := New(8)
	defer m.Close()
	rt := jade.New(m, jade.Config{})
	o := rt.Alloc("data", 8, new(int64))
	val := o.Data.(*int64)
	var readersSaw [16]int64
	for round := 0; round < 4; round++ {
		rt.WithOnly(func(s *jade.Spec) { s.RdWr(o) }, 0, func() {
			atomic.AddInt64(val, 1) // atomic only to please the race detector
		})
		for r := 0; r < 4; r++ {
			idx := round*4 + r
			rt.WithOnly(func(s *jade.Spec) { s.Rd(o) }, 0, func() {
				readersSaw[idx] = atomic.LoadInt64(val)
			})
		}
	}
	rt.Finish()
	for round := 0; round < 4; round++ {
		for r := 0; r < 4; r++ {
			if got := readersSaw[round*4+r]; got != int64(round+1) {
				t.Fatalf("reader %d.%d saw %d, want %d", round, r, got, round+1)
			}
		}
	}
}

func TestMultiPhaseReduction(t *testing.T) {
	const workers = 4
	m := New(workers)
	defer m.Close()
	rt := jade.New(m, jade.Config{})
	parts := make([]*jade.Object, workers)
	for i := range parts {
		parts[i] = rt.Alloc("part", 8, new(float64))
	}
	total := rt.Alloc("total", 8, new(float64))
	for phase := 0; phase < 3; phase++ {
		for i := range parts {
			p := parts[i]
			rt.WithOnly(func(s *jade.Spec) { s.RdWr(p) }, 0, func() {
				*p.Data.(*float64)++
			})
		}
		// Reduction task reads all parts.
		rt.WithOnly(func(s *jade.Spec) {
			for _, p := range parts {
				s.Rd(p)
			}
			s.RdWr(total)
		}, 0, func() {
			sum := 0.0
			for _, p := range parts {
				sum += *p.Data.(*float64)
			}
			*total.Data.(*float64) = sum
		})
	}
	rt.Finish()
	if got := *total.Data.(*float64); got != 12 {
		t.Fatalf("total = %v, want 12", got)
	}
}

func TestStatsCountTasks(t *testing.T) {
	m := New(2)
	defer m.Close()
	rt := jade.New(m, jade.Config{})
	o := rt.Alloc("x", 8, nil)
	for i := 0; i < 7; i++ {
		rt.WithOnly(func(s *jade.Spec) { s.Rd(o) }, 0, func() {})
	}
	res := rt.Finish()
	if res.TaskCount != 7 {
		t.Fatalf("TaskCount = %d, want 7", res.TaskCount)
	}
	if res.Procs != 2 {
		t.Fatalf("Procs = %d, want 2", res.Procs)
	}
	if res.ExecTime <= 0 {
		t.Fatal("ExecTime should be positive wall time")
	}
}

// TestRunMetricsPopulated asserts the fields a native run reports —
// task count, elapsed wall time, and per-worker busy time — not just
// result correctness.
func TestRunMetricsPopulated(t *testing.T) {
	const workers, tasks = 3, 9
	const perTask = 2 * time.Millisecond
	m := New(workers)
	defer m.Close()
	rt := jade.New(m, jade.Config{})
	for i := 0; i < tasks; i++ {
		o := rt.Alloc("o", 8, nil)
		rt.WithOnly(func(s *jade.Spec) { s.Wr(o) }, 0, func() {
			time.Sleep(perTask)
		})
	}
	res := rt.Finish()

	if res.TaskCount != tasks {
		t.Fatalf("TaskCount = %d, want %d", res.TaskCount, tasks)
	}
	if res.Procs != workers {
		t.Fatalf("Procs = %d, want %d", res.Procs, workers)
	}
	if res.ExecTime <= 0 {
		t.Fatal("ExecTime not populated")
	}
	if len(res.ProcBusy) != workers {
		t.Fatalf("len(ProcBusy) = %d, want one entry per worker (%d)", len(res.ProcBusy), workers)
	}
	var busySum float64
	for _, b := range res.ProcBusy {
		if b < 0 {
			t.Fatalf("negative busy time: %v", res.ProcBusy)
		}
		busySum += b
	}
	// Sleep guarantees at least perTask per body, so the summed busy
	// time has a hard floor; it must also agree with TaskExecTotal.
	floor := float64(tasks) * perTask.Seconds()
	if busySum < floor {
		t.Fatalf("sum(ProcBusy) = %v, want >= %v", busySum, floor)
	}
	if res.TaskExecTotal < floor {
		t.Fatalf("TaskExecTotal = %v, want >= %v", res.TaskExecTotal, floor)
	}
	if diff := busySum - res.TaskExecTotal; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("sum(ProcBusy) = %v disagrees with TaskExecTotal = %v", busySum, res.TaskExecTotal)
	}
	if u := res.Utilization(); len(u) != workers {
		t.Fatalf("Utilization() = %v, want %d entries", u, workers)
	}

	// ResetStats starts a fresh accounting window.
	m.ResetStats()
	if s := m.Stats(); s.TaskCount != 0 || s.TaskExecTotal != 0 || len(s.ProcBusy) != workers {
		t.Fatalf("stats not reset: %+v", s)
	}
}

func TestDrainWithNoTasks(t *testing.T) {
	m := New(2)
	defer m.Close()
	rt := jade.New(m, jade.Config{})
	rt.Wait() // must not hang
	rt.Serial(0, func() {})
	rt.Finish()
}

// A staged producer releases each buffer as it fills it, while the main
// program is still creating the buffers' readers and the next round's
// producer: early releases and completions race task creation. Every
// reader must see its buffer from its own round.
func TestStagedReleasesRaceCreation(t *testing.T) {
	m := New(4)
	defer m.Close()
	rt := jade.New(m, jade.Config{})
	const n = 16
	bufs := make([]*jade.Object, n)
	for i := range bufs {
		bufs[i] = rt.Alloc("buf", 8, new(int64))
	}
	var wrong atomic.Int64
	for round := int64(1); round <= 8; round++ {
		segs := make([]jade.Segment, n)
		for i, b := range bufs {
			v := b.Data.(*int64)
			segs[i] = jade.Segment{Body: func() { *v = round }, Release: []*jade.Object{b}}
		}
		rt.WithOnlyStaged(func(s *jade.Spec) {
			for _, b := range bufs {
				s.RdWr(b)
			}
		}, segs)
		for _, b := range bufs {
			v := b.Data.(*int64)
			rt.WithOnly(func(s *jade.Spec) { s.Rd(b) }, 0, func() {
				if *v != round {
					wrong.Add(1)
				}
			})
		}
	}
	rt.Finish()
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d readers saw another round's buffer", n)
	}
}
