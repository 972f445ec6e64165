package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/internal/jade"
	"repro/internal/jade/graph"
	"repro/internal/serve"
)

// One cell per machine model, for the transparency tests.
var machineCells = []experiments.RunSpec{
	{App: "ocean", Machine: "dash", Procs: 8, Level: "placement"},
	{App: "cholesky", Machine: "ipsc", Procs: 8, Level: "locality"},
	{App: "spmv", Machine: "pgas", Procs: 8, Level: "locality"},
	{App: "water", Machine: "cluster", Procs: 4},
}

// A machine wrapped in the timing decorator must produce the report
// the bare machine produces, byte for byte, however it is driven.
func TestTimedPlatformIsTransparent(t *testing.T) {
	clock := newRecorder().now
	for _, spec := range canonicalRuns(append([]experiments.RunSpec(nil), machineCells...)) {
		spec := spec
		front := frontEnd(spec.App, spec.Level == experiments.LevelPlacement)
		encode := func(p jade.Platform, cfg jade.Config, drive func(*jade.Runtime)) []byte {
			rt := jade.New(p, cfg)
			drive(rt)
			var buf bytes.Buffer
			if err := rt.Finish().WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}

		bare := encode(newMachine(&spec), jade.Config{}, front)
		tp := newTimedPlatform(newMachine(&spec), clock)
		if got := encode(tp, jade.Config{}, front); !bytes.Equal(got, bare) {
			t.Errorf("%s direct: wrapped report differs from bare", spec.Machine)
		}
		if tp.items == 0 || tp.busy() <= 0 {
			t.Errorf("%s direct: decorator saw %d callbacks, %d ns", spec.Machine, tp.items, tp.busy())
		}

		g := graph.Capture(spec.Procs, true, front)
		for _, k := range []int{1, 3} {
			variants := func(wrap bool) []graph.Variant {
				vars := make([]graph.Variant, k)
				for i := range vars {
					vars[i] = graph.Variant{Cfg: jade.Config{WorkFree: true}, Platform: func() jade.Platform {
						if wrap {
							return newTimedPlatform(newMachine(&spec), clock)
						}
						return newMachine(&spec)
					}}
				}
				return vars
			}
			want := graph.NewVariantSet(g, variants(false)).Run()
			got := graph.NewVariantSet(g, variants(true)).Run()
			for i := range want {
				if want[i].Err != nil || got[i].Err != nil {
					t.Fatalf("%s K=%d: replay errors %v / %v", spec.Machine, k, want[i].Err, got[i].Err)
				}
				if got[i].Fallback != want[i].Fallback {
					t.Errorf("%s K=%d: wrapped variant fell back (%t) where bare did not (%t)", spec.Machine, k, got[i].Fallback, want[i].Fallback)
				}
				var a, b bytes.Buffer
				if err := want[i].Run.WriteJSON(&a); err != nil {
					t.Fatal(err)
				}
				if err := got[i].Run.WriteJSON(&b); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a.Bytes(), b.Bytes()) {
					t.Errorf("%s K=%d variant %d: wrapped report differs from bare", spec.Machine, k, i)
				}
			}
		}
	}
}

// fakeClock advances by a fixed step on every read.
type fakeClock struct{ t, step int64 }

func (c *fakeClock) now() int64 { c.t += c.step; return c.t }

// nopPlatform is a platform whose callbacks do nothing but call back
// into the decorator the way a machine's Drain does.
type nopPlatform struct {
	jade.Platform
	onDrain func()
}

func (p *nopPlatform) Drain()                       { p.onDrain() }
func (p *nopPlatform) TaskCreated(*jade.Task, bool) {}
func (p *nopPlatform) TaskEnabled(*jade.Task)       {}

func TestTimedPlatformSamplesItemsAndSkipsNestedCalls(t *testing.T) {
	clk := &fakeClock{step: 10}
	inner := &nopPlatform{}
	tp := newTimedPlatform(inner, clk.now)
	inner.onDrain = func() { tp.TaskEnabled(nil) } // nested: must not be counted
	for i := 0; i < 3*itemStride; i++ {
		tp.TaskCreated(nil, true)
	}
	tp.Drain()
	// 3 of the 21 item callbacks were timed at 10 ns each, so the
	// estimate for all 21 is 210 ns; Drain adds 10.
	if tp.items != 3*itemStride || tp.itemsTimed != 3 {
		t.Fatalf("items %d timed %d, want %d and 3", tp.items, tp.itemsTimed, 3*itemStride)
	}
	if got := tp.busy(); got != 220 {
		t.Errorf("busy = %d ns, want 220", got)
	}
	rec := &recorder{now: clk.now}
	parent := rec.begin("parent", 4, -1)
	cursor := rec.addCoalesced(tp, "x.handler", parent, rec.start(parent))
	cursor = rec.addCoalesced(tp, "y.handler", parent, cursor)
	x, y := rec.spans[1], rec.spans[2]
	if x.Start != rec.spans[parent].Start || x.End-x.Start != 220 || x.Op != 4 || x.Parent != int32(parent) || x.Calls != int32(3*itemStride) {
		t.Errorf("coalesced span %+v", x)
	}
	if y.Start != x.End || cursor != y.End {
		t.Errorf("coalesced siblings must lie end to end: %+v then %+v, cursor %d", x, y, cursor)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	clk := &fakeClock{step: 1}
	rec := &recorder{now: clk.now}
	set := func(to int64) { clk.t = to - 1 }

	set(0)
	root := rec.begin("root", 7, -1)
	set(10)
	a := rec.begin("a", -1, root)
	set(40)
	rec.end(a)
	set(30) // overlaps a by 10, as a hedged Submit overlaps the primary's
	b := rec.begin("b", -1, root)
	set(60)
	rec.end(b)
	set(90)
	late := rec.begin("late", -1, root) // outlives its parent
	set(100)
	rec.end(root)
	set(130)
	rec.endAs(late, "renamed")
	rec.spans = append(rec.spans, span{Name: "coalesced", Op: 7, Parent: int32(a), Start: 10, End: 25, Calls: 9})

	self := selfTimes(rec.spans)
	// root spans [0,100]; children cover [10,60] and [90,100].
	if self[root] != 100-50-10 {
		t.Errorf("root self = %d, want 40", self[root])
	}
	if self[a] != 30-15 || self[b] != 30 || self[late] != 40 {
		t.Errorf("self a=%d b=%d late=%d, want 15, 30, 40", self[a], self[b], self[late])
	}
	for _, s := range rec.spans {
		if s.Op != 7 {
			t.Errorf("span %q has op %d: children must inherit their parent's", s.Name, s.Op)
		}
	}
	if rec.spans[late].Name != "renamed" {
		t.Errorf("endAs did not rename: %q", rec.spans[late].Name)
	}
	if id := rec.begin("own-op", -1, -1); int(rec.spans[id].Op) != id {
		t.Errorf("a root span with no op must number its own: %d vs %d", rec.spans[id].Op, id)
	}

	layers := layerMedians([]span{
		{Name: "op", Op: 0, Parent: -1, Start: 0, End: 10e6},
		{Name: "x", Op: 0, Parent: 0, Start: 0, End: 4e6},
		{Name: "op", Op: 1, Parent: -1, Start: 20e6, End: 40e6},
		{Name: "x", Op: 1, Parent: 2, Start: 20e6, End: 26e6},
		{Name: "x", Op: 1, Parent: 2, Start: 30e6, End: 32e6},
	})
	if layers["x"] != 6 || layers["op"] != 9 {
		t.Errorf("layerMedians = %v, want x: median(4, 8) = 6, op: median(6, 12) = 9", layers)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	vals := make([]float64, 99)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	if _, ok := percentile(vals, 0.90); ok {
		t.Error("p90 of 99 samples has only 9 beyond it: must refuse")
	}
	vals = append(vals, 100)
	if v, ok := percentile(vals, 0.90); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %t; want 90, true", v, ok)
	}
	if v, ok := percentile(vals, 0.50); !ok || v != 50 {
		t.Errorf("p50 of 1..100 = %v, %t; want 50, true", v, ok)
	}
	if _, ok := percentile(vals[:3], 0.50); ok {
		t.Error("p50 of 3 samples: must refuse")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// is [3.5, 13.5, 31.0].
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{"m", "ms", "lower", 0.10}
	higher := metricDef{"m", "1/s", "higher", 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		name         string
		d            metricDef
		base, change []float64
		want         string
	}{
		{"same", lower, steady, steady, verdictWithin},
		{"5% slower", lower, steady, []float64{105, 106, 104, 105, 105}, verdictWithin},
		{"20% slower", lower, steady, []float64{120, 121, 119, 120, 120}, verdictWorse},
		{"20% fewer ops", higher, steady, []float64{80, 81, 79, 80, 80}, verdictWorse},
		{"20% more ops", higher, steady, []float64{120, 121, 119, 120, 120}, verdictWithin},
		{"noisy, overlapping", lower, steady, []float64{70, 130, 100, 85, 115}, verdictUnresolved},
		{"noisy, but every run better", lower, steady, []float64{40, 80, 60, 50, 70}, verdictWithin},
		{"failed_frac rose", failedFrac, []float64{0, 0, 0}, []float64{0, 0.01, 0.01}, verdictWorse},
		{"failed_frac flat", failedFrac, []float64{0, 0, 0}, []float64{0, 0, 0}, verdictWithin},
	}
	for _, c := range cases {
		if got := verdict(c.d, c.base, c.change); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestGeneratorsAreSeeded(t *testing.T) {
	drawFor := func(seed int64, client int) []uint64 {
		z := newZipf(seed, client, 59)
		out := make([]uint64, 64)
		for i := range out {
			out[i] = z.Uint64()
		}
		return out
	}
	draw := func(seed int64) []uint64 { return drawFor(seed, 1) }
	if !reflect.DeepEqual(draw(1), draw(1)) || !reflect.DeepEqual(shuffledOrder(1, 1370), shuffledOrder(1, 1370)) {
		t.Error("the same seed must give the same draws and the same walk")
	}
	if reflect.DeepEqual(draw(1), draw(2)) || reflect.DeepEqual(shuffledOrder(1, 1370), shuffledOrder(2, 1370)) {
		t.Error("seed 2 must differ from seed 1")
	}
	if reflect.DeepEqual(draw(1), drawFor(1, 0)) {
		t.Error("two clients of one seed must not send the same stream")
	}
	for _, r := range draw(3) {
		if r > 58 {
			t.Fatalf("Zipf rank %d outside the 59-job pool", r)
		}
	}
}

func TestFrozenListsAndPoolProperties(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	resultCache := 128 // serve.Config.CacheEntries' default
	hot, cold, sweep := hotPool(), coldPool(), sweepSpecs()
	if len(tableIDs) != 12 || len(sweep) != 234 || len(hot) != 59 || len(cold) != 1370 {
		t.Fatalf("frozen lists: %d tables, %d cells, %d hot, %d cold; want 12, 234, 59, 1370", len(tableIDs), len(sweep), len(hot), len(cold))
	}
	if len(g.Tables) != 12 || len(g.Sweep) != 234 || len(g.Hot) != 59 || len(g.Cold) != 1370 {
		t.Error("golden.json does not record the frozen list lengths")
	}
	if len(g.SimStats) != len(simStatNames) {
		t.Errorf("golden.json holds %d simulated statistics, the report lists %d", len(g.SimStats), len(simStatNames))
	}
	for _, id := range hotExperimentIDs {
		if _, err := experiments.Get(id); err != nil {
			t.Errorf("frozen experiment ID: %v", err)
		}
	}
	if len(hot) > resultCache {
		t.Errorf("hot pool of %d does not fit one result cache of %d", len(hot), resultCache)
	}
	if len(cold) <= 4*topologyServers*resultCache {
		t.Errorf("cold pool of %d is not over four times the %d result-cache entries", len(cold), topologyServers*resultCache)
	}
	graphKeys := func(jobs []*serve.JobSpec, runs []experiments.RunSpec) int {
		keys := map[string]bool{}
		add := func(s *experiments.RunSpec) {
			if s.WorkFree {
				key, _ := json.Marshal([]any{s.App, s.Procs, s.Level == experiments.LevelPlacement, s.Fusion})
				keys[string(key)] = true
			}
		}
		for _, j := range jobs {
			add(&j.Runs[0])
		}
		for i := range runs {
			add(&runs[i])
		}
		return len(keys)
	}
	if n := graphKeys(cold, nil); n > 64 {
		t.Errorf("cold pool replays %d graphs, over 64", n)
	}
	if n := graphKeys(nil, sweep); n > 64 {
		t.Errorf("sweep replays %d graphs, over 64", n)
	}
	seen := map[string]int{}
	for i, j := range cold {
		if len(j.Runs) != 1 || len(j.Experiments) != 0 {
			t.Fatalf("cold[%d] is not a one-run job", i)
		}
		h := j.Hash()
		if prev, dup := seen[h]; dup {
			t.Fatalf("cold[%d] and cold[%d] are the same job", prev, i)
		}
		seen[h] = i
	}
}

// BENCHMARK.json is the contract with the driver; the tables in
// metrics.go are what the program reports. They must say the same.
func TestBenchmarkJSONAgrees(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" {
			t.Errorf("workload %d: %q (why: %q) disagrees with workloads.go", i, w.Name, w.Why)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better {
				t.Errorf("%s[%d]: %+v disagrees with %+v", kind, i, m, w)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != w.Bound) {
				t.Errorf("%s[%d] %s: bound disagrees", kind, i, m.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}

// Three ops of every workload, untraced and traced: the whole path
// from set-up to metrics, with every output checked against
// golden.json and every rebuilt cell against the real one.
func TestSmoke(t *testing.T) {
	for _, w := range workloadNames {
		res, err := runWorkload(runConfig{workload: w, seed: 1, ops: 3})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Failed != 0 || res.Attempted != 3 {
			t.Errorf("%s: %d of %d ops failed: %v", w, res.Failed, res.Attempted, res.Errors)
		}
		for _, name := range []string{"setup_s", "ops_per_s", "allocs_per_op", "alloc_kb_per_op", "peak_rss_mb"} {
			if res.Metrics[name] <= 0 {
				t.Errorf("%s: %s = %v", w, name, res.Metrics[name])
			}
		}
		if _, ok := res.Metrics["op_ms_p90"]; ok {
			t.Errorf("%s: p90 reported from 3 ops", w)
		}
	}
	homes := workloadNames
	if testing.Short() {
		homes = homes[1:2]
	}
	for _, w := range homes {
		out := t.TempDir() + "/spans.json"
		res, err := runWorkload(runConfig{workload: w, seed: 2, ops: 3, trace: true, traceOut: out})
		if err != nil {
			t.Fatalf("traced %s: %v", w, err)
		}
		if res.Failed != 0 {
			t.Errorf("traced %s: %d of %d ops failed: %v", w, res.Failed, res.Attempted, res.Errors)
		}
		// The percentile metrics need more than three ops; these do not.
		for _, name := range []string{"apps.body_ms", "graph.replay_self_ms", "dash.handler_ms", "cluster.ns_per_task",
			"sim.ns_per_event", "jade.sync_ns_per_access", "serve.http_us_p50", "go.heap_peak_mb"} {
			if res.Metrics[name] <= 0 {
				t.Errorf("traced %s: %s = %v", w, name, res.Metrics[name])
			}
		}
		g, _ := loadGolden()
		for name, want := range g.SimStats {
			if res.Metrics[name] != want {
				t.Errorf("traced %s: %s = %v, golden %v", w, name, res.Metrics[name], want)
			}
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Slices map[string][]span `json:"slices"`
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatal(err)
		}
		for _, slice := range workloadNames {
			if len(doc.Slices[slice]) == 0 {
				t.Errorf("traced %s: no spans for the %s slice in -trace-out", w, slice)
			}
		}
	}
}
