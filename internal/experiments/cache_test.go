package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/jade"
	"repro/internal/jade/graph"
	"repro/internal/lru"
	"repro/internal/metrics"
)

// executeDirect runs the spec's front-end straight against a fresh
// machine: no capture, no cache, no replay. It is the one oracle every
// replayed cell is compared against.
func executeDirect(t *testing.T, s RunSpec, scale Scale) *metrics.Run {
	t.Helper()
	if err := s.Canonicalize(); err != nil {
		t.Fatalf("Canonicalize(%+v): %v", s, err)
	}
	a := appKeys[s.App]
	p, obs := s.newPlatform(nil, nil)
	rt := jade.New(p, jade.Config{WorkFree: s.WorkFree})
	a.run(rt, scale, s.Level == LevelPlacement && a.hasPlacement)
	r := rt.Finish()
	r.Obsv = obs.Snapshot(0)
	return r
}

func runBytes(t *testing.T, r *metrics.Run) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// levelsFor is every level Canonicalize accepts for the cell: none and
// locality, placement where the app has it, and none at all on cluster.
func levelsFor(app, machine string) []string {
	if machine == "cluster" {
		return []string{""}
	}
	levels := []string{LevelNone, LevelLocality}
	if appKeys[app].hasPlacement {
		levels = append(levels, LevelPlacement)
	}
	return levels
}

// faultedSpecs are the work-free cells that replay under fault
// injection; faults live in the machine, so each replays the same clean
// graph as its healthy twin.
func faultedSpecs() []RunSpec {
	return []RunSpec{
		{App: "water", Machine: "ipsc", Procs: 8, WorkFree: true, Observe: true,
			Fault: &fault.Spec{Seed: 42, DropPct: 0.1, DupPct: 0.05, DegradedLinkPct: 0.25, Stragglers: 2}},
		{App: "cholesky", Machine: "dash", Procs: 8, WorkFree: true, Observe: true,
			Fault: &fault.Spec{Seed: 7, VictimClusters: 1, InvalidatePct: 0.2}},
		{App: "spmv", Machine: "pgas", Procs: 8, WorkFree: true, Observe: true,
			Fault: &fault.Spec{Seed: 42, DegradedLinkPct: 0.25, Stragglers: 2, VictimClusters: 1}},
		{App: "water", Machine: "pgas", Procs: 8, WorkFree: true, Observe: true,
			Fault: &fault.Spec{Seed: 7, DegradedLinkPct: 0.4, Stragglers: 1}},
	}
}

// timedFaultedSpecs are body-bearing cells under fault injection, one per
// machine with a fault model: they replay the timed graph, captured
// clean.
func timedFaultedSpecs() []RunSpec {
	return []RunSpec{
		{App: "ocean", Machine: "dash", Procs: 8, Observe: true,
			Fault: &fault.Spec{Seed: 7, VictimClusters: 1, InvalidatePct: 0.2}},
		{App: "cholesky", Machine: "ipsc", Procs: 8, Observe: true,
			Fault: &fault.Spec{Seed: 42, DropPct: 0.1, DupPct: 0.05, DegradedLinkPct: 0.25, Stragglers: 2}},
		{App: "water", Machine: "pgas", Procs: 8, Observe: true,
			Fault: &fault.Spec{Seed: 42, DegradedLinkPct: 0.25, Stragglers: 2, VictimClusters: 1}},
	}
}

// paperTableCells are the distinct cells of Tables 2-5 and 7-14 (168 at
// either scale): every body-bearing cell of the paper's timing tables.
func paperTableCells(scale Scale) []RunSpec {
	var ids []string
	for i := 2; i <= 14; i++ {
		if i != 6 {
			ids = append(ids, fmt.Sprintf("table%d", i))
		}
	}
	p, err := newPlan(ids, nil, scale)
	if err != nil {
		panic(err)
	}
	return p.cells
}

// replayRows is the differential table at one scale. Small carries the
// whole workfree-sweep shape — every app, machine, level and processor
// count — plus the pgas aggregation-off, iPSC coalescing-on, fused and
// faulted cells; and body-bearing rows, which replay timed graphs: every
// distinct Table 2-14 cell, every app, machine and level at procs = 8,
// faulted cells and the DefaultRunSpecs. PaperScale repeats the
// work-free procs = 8 cells of the two paper machines.
func replayRows(scale Scale) []RunSpec {
	var rows []RunSpec
	cell := func(app, machine, level string, procs int) RunSpec {
		return RunSpec{App: app, Machine: machine, Procs: procs, Level: level, WorkFree: true, Observe: true}
	}
	if scale == PaperScale {
		for _, app := range []string{"water", "string", "ocean", "cholesky"} {
			for _, machine := range []string{"dash", "ipsc"} {
				for _, level := range levelsFor(app, machine) {
					rows = append(rows, cell(app, machine, level, 8))
				}
			}
		}
		return rows
	}
	off := false
	for _, app := range []string{"water", "string", "ocean", "cholesky", "spmv"} {
		for _, machine := range []string{"dash", "ipsc", "pgas", "cluster"} {
			for _, level := range levelsFor(app, machine) {
				for _, procs := range []int{1, 2, 4, 8, 16, 32} {
					rows = append(rows, cell(app, machine, level, procs))
				}
				timed := cell(app, machine, level, 8)
				timed.WorkFree = false
				rows = append(rows, timed)
				switch machine {
				case "pgas":
					s := cell(app, machine, level, 8)
					s.Aggregation = &off
					rows = append(rows, s)
				case "ipsc":
					s := cell(app, machine, level, 8)
					s.Coalescing = true
					rows = append(rows, s)
				}
			}
		}
	}
	fused := cell("cholesky", "ipsc", LevelLocality, 8)
	fused.Fusion = true
	both := fused
	both.Coalescing = true
	rows = append(rows, fused, both)
	rows = append(rows, faultedSpecs()...)
	rows = append(rows, timedFaultedSpecs()...)
	rows = append(rows, paperTableCells(scale)...)
	return append(rows, DefaultRunSpecs()...)
}

// TestReplayMatchesDirect is the one differential table: every cell is
// executed directly (the oracle), through Execute, and as part of one
// whole-table ExecuteRuns, and all three reports must be byte-identical.
// Work-free and body-bearing cells alike thereby pin capture -> plan ->
// Replay, the body-bearing ones on timed graphs whose bodies ran once. No
// program expresses a fused graph directly, so the fused cells check the
// two entry points against each other and that the fusion stamp is there.
func TestReplayMatchesDirect(t *testing.T) {
	for _, scale := range []Scale{Small, PaperScale} {
		rows := replayRows(scale)
		swept, err := Runner{}.ExecuteRuns(rows, scale)
		if err != nil {
			t.Fatal(err)
		}
		for i, spec := range rows {
			b, _ := json.Marshal(spec) // a RunSpec always marshals
			name := strings.NewReplacer(`"`, "", "{", "", "}", "").Replace(string(b))
			t.Run(fmt.Sprintf("%s/%s", scale, name), func(t *testing.T) {
				t.Parallel()
				solo, err := spec.Execute(scale)
				if err != nil {
					t.Fatal(err)
				}
				want := runBytes(t, solo)
				if spec.Fusion {
					if solo.TasksFused == 0 || solo.FusionBenefitBytes == 0 {
						t.Error("fused run carries no fusion stamp")
					}
				} else if !bytes.Equal(runBytes(t, executeDirect(t, spec, scale)), want) {
					t.Error("Execute differs from direct execution")
				}
				if !bytes.Equal(want, runBytes(t, swept[i])) {
					t.Error("ExecuteRuns differs from Execute")
				}
			})
		}
	}
}

// A capture taken while a faulted run is the first to ask for the graph
// must not be perturbed by the faults: with the cache emptied so the
// faulted run captures, its healthy twin replays that same graph and
// must still match healthy direct execution. (Serial on purpose: the
// cache reset must not race the parallel table.)
func TestGraphReplayFaultedRuns(t *testing.T) {
	captureUnderFault(t, append(faultedSpecs()[:2], timedFaultedSpecs()[1]))
}

func captureUnderFault(t *testing.T, specs []RunSpec) {
	for _, spec := range specs {
		resetSharedCache()
		if _, err := spec.Execute(Small); err != nil {
			t.Fatal(err)
		}
		healthy := spec
		healthy.Fault = nil
		replayed, err := healthy.Execute(Small)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(runBytes(t, executeDirect(t, healthy, Small)), runBytes(t, replayed)) {
			t.Errorf("%s/%s: capture taken during a faulted run was perturbed by the faults", spec.App, spec.Machine)
		}
	}
}

// replay must fail loudly when handed a platform that already ran:
// re-running the front-end directly instead would turn a caller bug into
// a slow, correct-looking run.
func TestReplayRejectsReusedPlatform(t *testing.T) {
	spec := RunSpec{App: "water", Machine: "dash", WorkFree: true}
	if err := spec.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	p, _ := spec.newPlatform(nil, nil)
	cfg := jade.Config{WorkFree: true}
	jade.New(p, cfg) // attach: the platform is no longer fresh
	defer func() {
		if err, _ := recover().(error); !errors.Is(err, graph.ErrPlatformReused) {
			t.Fatalf("replay on an attached platform: recovered %v, want ErrPlatformReused", err)
		}
	}()
	replay(spec.taskGraph(Small).g, new(jade.Runtime), p, cfg)
}

// resetSharedCache empties the shared cache and zeroes its counters.
// Callers run serially: no run may hold the old cache.
func resetSharedCache() { sharedCache = lru.New[cacheKey, *slot](graphCacheCap) }

// The front-end must be built once per (app, scale, place, procs), no
// matter how many sweep cells or goroutines ask for it.
func TestGraphCacheFillOnce(t *testing.T) {
	c := lru.New[cacheKey, *slot](8)
	var builds int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	vals := make([]any, 32)
	for i := range vals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i] = cached(c, cacheKey{app: "k"}, func() any {
				mu.Lock()
				builds++
				mu.Unlock()
				return new(int)
			})
		}(i)
	}
	wg.Wait()
	if builds != 1 {
		t.Fatalf("build ran %d times for one key, want 1", builds)
	}
	for i, v := range vals {
		if v != vals[0] {
			t.Fatalf("goroutine %d got a different value", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 31 || st.Len != 1 {
		t.Fatalf("stats = %+v, want 1 miss, 31 hits, 1 entry", st)
	}
}

func TestGraphCacheBounded(t *testing.T) {
	c := lru.New[cacheKey, *slot](4)
	for i := 0; i < 10; i++ {
		cached(c, cacheKey{procs: i}, func() any { return i })
	}
	if n := c.Len(); n != 4 {
		t.Fatalf("cache holds %d entries, want capacity 4", n)
	}
	// LRU: the most recent keys survive, the oldest were evicted.
	before := c.Stats()
	cached(c, cacheKey{procs: 9}, func() any { t.Fatal("k9 was evicted"); return nil })
	if st := c.Stats(); st.Hits != before.Hits+1 {
		t.Fatalf("k9 lookup was not a hit")
	}
	rebuilt := false
	cached(c, cacheKey{procs: 0}, func() any { rebuilt = true; return 0 })
	if !rebuilt {
		t.Fatal("k0 survived past the capacity bound")
	}
}

// Concurrent sweep cells sharing one graph: the canonical parallel
// fan-out path, run under -race in CI.
func TestGraphCacheConcurrentRuns(t *testing.T) {
	resetSharedCache()
	spec := RunSpec{App: "ocean", Machine: "dash", Procs: 8, Level: LevelPlacement, WorkFree: true}
	want := reportJSON(t, spec)
	var wg sync.WaitGroup
	got := make([][]byte, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := spec.Execute(Small)
			if err != nil {
				panic(err)
			}
			var buf bytes.Buffer
			if err := r.WriteJSON(&buf); err != nil {
				panic(err)
			}
			got[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()
	for i := range got {
		if !bytes.Equal(want, got[i]) {
			t.Fatalf("concurrent cached run %d diverged", i)
		}
	}
	if st := GraphCacheStats(); st.Hits == 0 {
		t.Fatalf("concurrent runs never hit the cache: %+v", st)
	}
}

// The Cholesky symbolic workload now lives in the shared cache; runs
// at one scale must keep sharing a single instance.
func TestCholeskyWorkloadShared(t *testing.T) {
	if choleskyWorkload("cholesky", Small) != choleskyWorkload("cholesky", Small) {
		t.Fatal("choleskyWorkload built two instances for one scale")
	}
}

// registryResidency is the shared cache's size after one pass over the
// registry at Small: every graph, fused graph and workload it reads.
// The granularity program places its own tasks, so the iPSC's Task
// Placement cells and PGAS's Affinity cells share one graph per size.
const registryResidency = 66

// After one pass over every registered experiment at Small, the shared
// cache holds every graph and workload they read, so a second pass —
// body-bearing cells included — misses nothing: no front-end and no task
// body runs again.
func TestSecondPassCapturesNothing(t *testing.T) {
	resetSharedCache()
	pass := func() {
		if _, _, err := (Runner{}).Execute(IDs(), DefaultRunSpecs(), Small); err != nil {
			t.Fatal(err)
		}
	}
	pass()
	warm := GraphCacheStats()
	pass()
	if st := GraphCacheStats(); st.Misses != warm.Misses {
		t.Fatalf("second pass missed %d times (%d of %d entries resident)", st.Misses-warm.Misses, st.Entries, st.Capacity)
	}
	if warm.Entries != registryResidency {
		t.Errorf("one pass left %d entries resident, want %d", warm.Entries, registryResidency)
	}
}
