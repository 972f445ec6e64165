package experiments

import (
	"bytes"
	"testing"

	"repro/internal/fault"
	"repro/internal/jade"
	"repro/internal/metrics"
)

// freshReplay is a canonical spec's run through Graph.Replay onto a new
// platform: a new machine, runtime and fault injector, none reused.
func freshReplay(t *testing.T, s RunSpec) *metrics.Run {
	t.Helper()
	p, obs := s.newPlatform(nil, nil)
	fe := s.taskGraph(Small)
	r, err := fe.g.Replay(p, jade.Config{WorkFree: s.WorkFree})
	if err != nil {
		t.Fatal(err)
	}
	if s.Fusion {
		stampFusion(r, s.Machine, fe.st)
	}
	r.Obsv = obs.Snapshot(0)
	return r
}

// TestReusedRuntimeMatchesFresh replays a shuffled mix of cells through
// one free list — its machines, its replay runtime and its fault
// injector all reset in place from cell to cell — then a spec that
// panics, then more cells, and checks every run's report and observer
// snapshot against a fresh Graph.Replay. The mix spans graph sizes from
// 1 to 32 processors, timed and work-free runs, and fused, faulted and
// observed cells, so stale pending counts, done bits, enabled-task
// scratch or injector counters from a larger or different run would
// show.
func TestReusedRuntimeMatchesFresh(t *testing.T) {
	cells := resetCells()
	var covered struct{ fused, faulted, observed, timed, workFree bool }
	sizes := map[int]bool{}
	free := &machines{}
	check := func(i int, s RunSpec) {
		covered.fused = covered.fused || s.Fusion
		covered.faulted = covered.faulted || s.Fault != nil
		covered.observed = covered.observed || s.Observe
		covered.timed = covered.timed || !s.WorkFree
		covered.workFree = covered.workFree || s.WorkFree
		sizes[s.taskGraph(Small).g.TaskCount()] = true
		if got, want := runSignature(t, s.execute(Small, free, nil)), runSignature(t, freshReplay(t, s)); !bytes.Equal(got, want) {
			t.Fatalf("cell %d %+v: run through the reused runtime differs from a fresh Graph.Replay", i, s)
		}
	}
	half := len(cells) / 2
	for i, s := range cells[:half] {
		check(i, s)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a spec with an injected panic did not panic")
			}
		}()
		panicking := RunSpec{App: "water", Machine: "ipsc", Fault: &fault.Spec{Panic: true}}
		if err := panicking.Canonicalize(); err != nil {
			t.Fatal(err)
		}
		panicking.execute(Small, free, nil)
	}()
	for i, s := range cells[half:] {
		check(half+i, s)
	}
	if !covered.fused || !covered.faulted || !covered.observed || !covered.timed || !covered.workFree {
		t.Fatalf("cells miss a kind: %+v", covered)
	}
	if len(sizes) < 10 {
		t.Fatalf("cells replay %d distinct graph sizes, want at least 10", len(sizes))
	}
}
