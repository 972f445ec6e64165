package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/apps/ocean"
	"repro/internal/cluster"
	"repro/internal/dash"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/ipsc"
	"repro/internal/jade"
	"repro/internal/metrics"
	"repro/internal/obsv"
	"repro/internal/pgas"
)

// wantDigests pins the first 8 bytes (hex) of the SHA-256 of every
// output below. The machine models' instrumentation may be rebuilt
// freely as long as none of these bytes move; a deliberate change
// regenerates the table (the failure message prints it) and says why.
var wantDigests = map[string]string{
	"cell/extension-portability/10":          "e57bb4801cec92c2",
	"cell/extension-portability/10/perfetto": "37c786497daee05f",
	"cell/fault-sweep/42":                    "cdb422c359409ab7",
	"cell/fault-sweep/42/perfetto":           "1f18dd6f0b5080b0",
	"cell/fig10/9":                           "f57b60c10b57a979",
	"cell/fig10/9/perfetto":                  "788690e3ae1cb118",
	"cell/pgas-compare/8":                    "c3c2d4ab271f6d9d",
	"cell/pgas-compare/8/perfetto":           "80fea4d460af91be",
	"cell/table10/16":                        "15d9830157e8b66a",
	"cell/table10/16/perfetto":               "324ada30fbfa85a3",
	"cell/table10/2":                         "0e04612ced22a3fa",
	"cell/table10/2/perfetto":                "fb662a688fabb6f2",
	"cell/table10/9":                         "6e13d47abf785e7a",
	"cell/table10/9/perfetto":                "0a8979aa5d38a6f4",
	"cell/table2/2":                          "bf1bcbd7132926c9",
	"cell/table2/2/perfetto":                 "b89229f226d3c681",
	"cell/table2/9":                          "508c15854e01c419",
	"cell/table2/9/perfetto":                 "c8039426ddd23c40",
	"cell/table3/2":                          "6d3d7b05d0d579f3",
	"cell/table3/2/perfetto":                 "5f472c6ad5cd9c31",
	"cell/table3/9":                          "8c7230471080a4ed",
	"cell/table3/9/perfetto":                 "7aef6698f696219d",
	"cell/table4/16":                         "fd3792ae27d26a5f",
	"cell/table4/16/perfetto":                "0b579d3c799ec788",
	"cell/table4/2":                          "45f67fc5b8ca4573",
	"cell/table4/2/perfetto":                 "5b9ff8fa1f101245",
	"cell/table4/9":                          "de2bdeb959c87be1",
	"cell/table4/9/perfetto":                 "394eb4c168246b30",
	"cell/table5/16":                         "25319b813cd9b947",
	"cell/table5/16/perfetto":                "ce4828b135d9baf7",
	"cell/table5/2":                          "103c81766f4afc4c",
	"cell/table5/2/perfetto":                 "ff8b9164353a9d03",
	"cell/table5/9":                          "45ac95549a31a156",
	"cell/table5/9/perfetto":                 "0263d279439be3c2",
	"cell/table7/2":                          "03946a100ce710b7",
	"cell/table7/2/perfetto":                 "3c054e956595ee23",
	"cell/table7/9":                          "b95f3ec6d3b734e6",
	"cell/table7/9/perfetto":                 "db137316eebb3846",
	"cell/table8/2":                          "4ff8bcbe5ed6f2e0",
	"cell/table8/2/perfetto":                 "4690925f7fcd7480",
	"cell/table8/9":                          "4e5df9aa4fd27bd7",
	"cell/table8/9/perfetto":                 "0e0c4ee767ab79ba",
	"cell/table9/16":                         "51441f38943ab800",
	"cell/table9/16/perfetto":                "2f75bcac7fa1a0a8",
	"cell/table9/2":                          "b0f9d483810c61c0",
	"cell/table9/2/perfetto":                 "307839319ae3d23f",
	"cell/table9/9":                          "f88a8c2ba8df48fa",
	"cell/table9/9/perfetto":                 "6c404be8179ff291",

	"metrics/cholesky/dash/8":      "0dce2a97fdba3921",
	"metrics/cholesky/ipsc/8":      "a1f52319f7907fe8",
	"metrics/ocean/cluster/4":      "8b347fee2eaf1b5b",
	"metrics/ocean/dash/8":         "b3216ff19e482a1d",
	"metrics/ocean/ipsc/8":         "fa30b8f318194c27",
	"metrics/spmv/dash/8":          "b42bea159f8b659d",
	"metrics/spmv/ipsc/8":          "daa6bc5f8b131742",
	"metrics/spmv/pgas/8":          "473dcaf92ed8a587",
	"metrics/string/dash/8":        "a1e5ed2c2fd4866d",
	"metrics/string/ipsc/8":        "4a0211e3cad37747",
	"metrics/water/dash/8":         "165ae1a11bd4fc1d",
	"metrics/water/ipsc/8":         "33f183f7483c05d7",
	"metrics/water/ipsc/8/faulted": "9f4af28a213e1369",
	"staged/cluster":               "b79f1949ef9b0a3b",
	"staged/dash":                  "2bd91354081525ab",
	"staged/ipsc":                  "55caf2c6771902bc",
	"staged/pgas":                  "d345dbeae3dc60e7",

	// Scheduler and cost-model paths the rows above miss.
	"direct/ocean/pgas/none/target2":      "4df0c1ce04409161",
	"direct/ocean/pgas/placement/target2": "462106290f46b19c",
	"metrics/ocean/pgas/8/links":          "1a7561edbb093bbd",
	"metrics/ocean/pgas/8/none":           "b3381d3daee12eaf",
	"metrics/ocean/pgas/8/stragglers":     "1dec4abe159a9746",
	"metrics/ocean/pgas/8/victims":        "46f3ffb6620136a6",
	"metrics/water/cluster/1":             "317c08b27ef829b7",
	"metrics/water/cluster/1/speed-aware": "317c08b27ef829b7",
	"metrics/water/cluster/3":             "3d31c27943882bf0",
	"metrics/water/cluster/3/speed-aware": "1808d74b1086b92b",
	"metrics/water/ipsc/8/none/eager":     "8d14c7e5f5df2d1e",
	"staged/ipsc/drop":                    "d7df273942d8bc45",

	// The timed message paths and the DASH cache under eviction.
	"direct/ocean/dash/8/cache8k":                    "53b979e13ff9d13d",
	"metrics/cholesky/cluster/4":                     "709f0648e80da7bc",
	"metrics/cholesky/ipsc/8/locality/coalescing":    "526d8c00b9518e66",
	"metrics/cholesky/ipsc/8/none/coalescing/serial": "2dae1a89d4620bc9",
	"metrics/ocean/ipsc/8/locality/serial":           "94d63a94020bf4e8",
	"metrics/ocean/ipsc/8/none/coalescing":           "126a48d19f42f333",
	"metrics/ocean/ipsc/8/none/serial":               "682900325fc2bb1e",
	"metrics/spmv/ipsc/8/locality/coalescing":        "4951c01733f473b7",
	"metrics/spmv/pgas/8/no-aggregation":             "0871124b797344dc",
	"metrics/water/ipsc/8/locality/eager+bcast":      "42fba233fcd9fa63",
}

// tracedCell names one registered cell: the n-th run experiment id
// reads.
type tracedCell struct {
	id string
	n  int
}

// tracedCells lists the cells whose traces are pinned: every level of
// Tables 2–5 (DASH) and 7–10 (iPSC) at 4 processors, a work-free DASH
// cell, a fused work-free iPSC cell under message loss, Ocean on pgas
// in the three-machine comparison, and Ocean on the cluster in the
// portability study.
func tracedCells() []tracedCell {
	var cells []tracedCell
	for _, table := range []struct {
		id     string
		levels int
	}{
		{"table2", 2}, {"table3", 2}, {"table4", 3}, {"table5", 3},
		{"table7", 2}, {"table8", 2}, {"table9", 3}, {"table10", 3},
	} {
		for r := 0; r < table.levels; r++ {
			cells = append(cells, tracedCell{table.id, r*len(experiments.Procs) + 2})
		}
	}
	return append(cells,
		tracedCell{"fig10", 9},
		tracedCell{"fault-sweep", 42},
		tracedCell{"pgas-compare", 8},
		tracedCell{"extension-portability", 10})
}

// TestEventStreamDigests pins everything the simulated machines'
// instrumentation feeds:
//   - jadebench -cell's stdout (the cell, hot objects, event log, Gantt
//     chart, summary) and Perfetto export, for registered cells on all
//     four machines;
//   - the jade-metrics/v1 report with the observer attached, for the
//     default observed run specs, an observed cluster cell, a faulted
//     iPSC cell (delivery attempts), and a staged program on each of
//     the four machines;
//   - the same report for the scheduler and cost-model paths those
//     miss: pgas under each fault kind, at no affinity and with two
//     tasks per locale; cluster at 1 and 3 workstations with and
//     without the speed-aware pick; the iPSC update protocol at no
//     locality; and the staged program on a lossy iPSC;
//   - the timed message paths: the iPSC's serial fetch chain, coalesced
//     fetches, and eager updates beside adaptive broadcasts; pgas
//     without aggregation; cluster on Cholesky; and DASH with caches
//     small enough to evict.
func TestEventStreamDigests(t *testing.T) {
	got := map[string]string{}
	pf := filepath.Join(t.TempDir(), "perfetto.json")
	for _, c := range tracedCells() {
		var stdout, stderr bytes.Buffer
		args := []string{"-experiment", c.id, "-cell", strconv.Itoa(c.n),
			"-log", "-hot", "10", "-perfetto", pf}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("jadebench %s: exit %d: %s", strings.Join(args, " "), code, stderr.String())
		}
		perfetto, err := os.ReadFile(pf)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("cell/%s/%d", c.id, c.n)
		got[name] = digest(bytes.ReplaceAll(stdout.Bytes(), []byte(pf), []byte("OUT")))
		got[name+"/perfetto"] = digest(perfetto)
	}

	faulted := experiments.RunSpec{App: "water", Machine: "ipsc", Procs: 8, Observe: true,
		Fault: &fault.Spec{Seed: 7, DropPct: 0.05, DupPct: 0.02}}
	specs := append(experiments.DefaultRunSpecs(),
		experiments.RunSpec{App: "ocean", Machine: "cluster", Procs: 4, Observe: true}, faulted)
	for _, s := range specs {
		r, err := s.Execute(experiments.Small)
		if err != nil {
			t.Fatal(err)
		}
		if r.Obsv == nil {
			t.Fatalf("%s/%s: observed run carries no snapshot", s.App, s.Machine)
		}
		name := fmt.Sprintf("metrics/%s/%s/%d", s.App, s.Machine, s.Procs)
		if s.Fault != nil {
			name += "/faulted"
			if r.Obsv.DeliveryAttempts == nil {
				t.Fatalf("%s: faulted run recorded no delivery attempts", name)
			}
		}
		got[name] = digest(metricsJSON(t, r))
	}

	on, off := true, false
	// Scheduler and cost-model paths the default specs miss: pgas under
	// each fault kind and with no affinity, cluster at odd sizes with and
	// without the speed-aware pick, and the iPSC update protocol.
	for name, s := range map[string]experiments.RunSpec{
		"metrics/ocean/pgas/8/stragglers":     {App: "ocean", Machine: "pgas", Fault: &fault.Spec{Seed: 7, Stragglers: 2}},
		"metrics/ocean/pgas/8/links":          {App: "ocean", Machine: "pgas", Fault: &fault.Spec{Seed: 7, DegradedLinkPct: 0.3}},
		"metrics/ocean/pgas/8/victims":        {App: "ocean", Machine: "pgas", Fault: &fault.Spec{Seed: 7, VictimClusters: 2}},
		"metrics/ocean/pgas/8/none":           {App: "ocean", Machine: "pgas", Level: "none"},
		"metrics/water/cluster/1":             {App: "water", Machine: "cluster", Procs: 1},
		"metrics/water/cluster/1/speed-aware": {App: "water", Machine: "cluster", Procs: 1, SpeedAware: true},
		"metrics/water/cluster/3":             {App: "water", Machine: "cluster", Procs: 3},
		"metrics/water/cluster/3/speed-aware": {App: "water", Machine: "cluster", Procs: 3, SpeedAware: true},
		"metrics/water/ipsc/8/none/eager":     {App: "water", Machine: "ipsc", Level: "none", EagerUpdate: true},

		// The timed message paths: the serial fetch chain, coalesced
		// fetches (at levels where some task reads two objects from one
		// owner), eager pushes beside adaptive broadcasts, unaggregated
		// PGAS gets and puts, and the cluster's fetch reply.
		"metrics/ocean/ipsc/8/none/serial":               {App: "ocean", Machine: "ipsc", Level: "none", ConcurrentFetch: &off},
		"metrics/ocean/ipsc/8/locality/serial":           {App: "ocean", Machine: "ipsc", Level: "locality", ConcurrentFetch: &off},
		"metrics/ocean/ipsc/8/none/coalescing":           {App: "ocean", Machine: "ipsc", Level: "none", Coalescing: true},
		"metrics/cholesky/ipsc/8/locality/coalescing":    {App: "cholesky", Machine: "ipsc", Level: "locality", Coalescing: true},
		"metrics/cholesky/ipsc/8/none/coalescing/serial": {App: "cholesky", Machine: "ipsc", Level: "none", Coalescing: true, ConcurrentFetch: &off},
		"metrics/spmv/ipsc/8/locality/coalescing":        {App: "spmv", Machine: "ipsc", Level: "locality", Coalescing: true},
		"metrics/water/ipsc/8/locality/eager+bcast":      {App: "water", Machine: "ipsc", Level: "locality", EagerUpdate: true, AdaptiveBroadcast: &on},
		"metrics/spmv/pgas/8/no-aggregation":             {App: "spmv", Machine: "pgas", Aggregation: &off},
		"metrics/cholesky/cluster/4":                     {App: "cholesky", Machine: "cluster", Procs: 4},
	} {
		s.Observe = true
		if s.Procs == 0 {
			s.Procs = 8
		}
		r, err := s.Execute(experiments.Small)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if strings.Contains(name, "coalescing") && r.MsgsCoalesced == 0 {
			t.Fatalf("%s: no fetch was coalesced", name)
		}
		if strings.Contains(name, "bcast") && r.BroadcastCount == 0 {
			t.Fatalf("%s: no version was broadcast", name)
		}
		got[name] = digest(metricsJSON(t, r))
	}

	// pgas with two tasks per locale, which RunSpec offers only on ipsc.
	for name, level := range map[string]pgas.LocalityLevel{"none": pgas.NoAffinity, "placement": pgas.TaskPlacement} {
		cfg := pgas.DefaultConfig(8, level)
		cfg.TargetTasks = 2
		m := pgas.New(cfg)
		obs := obsv.New(8)
		m.Sink = obs
		rt := jade.New(m, jade.Config{})
		oc := ocean.Small()
		oc.Place = level == pgas.TaskPlacement
		ocean.Run(rt, oc)
		r := rt.Finish()
		r.Obsv = obs.Snapshot(0)
		got["direct/ocean/pgas/"+name+"/target2"] = digest(metricsJSON(t, r))
	}

	// DASH with caches small enough that Ocean evicts: the run must
	// differ from the default-sized one, or nothing was evicted.
	var dashOcean [2]string
	for i, cacheBytes := range []int{dash.DefaultConfig(8, dash.Locality).CacheBytes, 8 << 10} {
		cfg := dash.DefaultConfig(8, dash.Locality)
		cfg.CacheBytes = cacheBytes
		m := dash.New(cfg)
		obs := obsv.New(8)
		m.Sink = obs
		rt := jade.New(m, jade.Config{})
		ocean.Run(rt, ocean.Small())
		r := rt.Finish()
		r.Obsv = obs.Snapshot(0)
		dashOcean[i] = digest(metricsJSON(t, r))
	}
	if dashOcean[0] == dashOcean[1] {
		t.Fatal("direct/ocean/dash/8/cache8k: the small cache changed nothing")
	}
	got["direct/ocean/dash/8/cache8k"] = dashOcean[1]

	for _, machine := range []string{"dash", "ipsc", "pgas", "cluster"} {
		p, snapshot := observedMachine(machine, 4)
		rt := jade.New(p, jade.Config{})
		stagedProgram(rt)
		r := rt.Finish()
		r.Obsv = snapshot()
		got["staged/"+machine] = digest(metricsJSON(t, r))
	}

	// The staged program on a lossy iPSC: retransmits straddle segment
	// boundaries and early releases.
	p, snapshot := observedMachine("ipsc", 4)
	drop := fault.Spec{Seed: 11, DropPct: 0.3}
	if err := drop.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	p.(*ipsc.Machine).Inj = fault.NewInjector(drop, 4)
	rt := jade.New(p, jade.Config{})
	stagedProgram(rt)
	r := rt.Finish()
	if r.MsgRetransmits == 0 {
		t.Fatal("staged/ipsc/drop: no message was retransmitted")
	}
	r.Obsv = snapshot()
	got["staged/ipsc/drop"] = digest(metricsJSON(t, r))

	failed := false
	for name, d := range got {
		if want := wantDigests[name]; want != d {
			t.Errorf("%s: digest %s, want %q", name, d, want)
			failed = true
		}
	}
	for name := range wantDigests {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: pinned output no longer produced", name)
			failed = true
		}
	}
	if failed {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var sb strings.Builder
		for _, name := range names {
			fmt.Fprintf(&sb, "\t%q: %q,\n", name, got[name])
		}
		t.Logf("current digests:\n%s", sb.String())
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func metricsJSON(t *testing.T, r *metrics.Run) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// stagedProgram is a small pipeline: a warm-up phase the metrics reset
// drops, then rounds of two-segment producers that release their input
// at the first segment boundary, a reader per produced block, and a
// serial phase that pulls every block back to the main processor.
func stagedProgram(rt *jade.Runtime) {
	const n = 4
	blocks := make([]*jade.Object, n)
	for i := range blocks {
		blocks[i] = rt.Alloc(fmt.Sprintf("block%d", i), 2048*(i+1), nil, jade.OnProcessor(i%rt.Processors()))
	}
	for _, b := range blocks {
		b := b
		rt.WithOnly(func(s *jade.Spec) { s.Wr(b) }, 1e-4, func() {})
	}
	rt.ResetMetrics()
	for round := 0; round < 3; round++ {
		for i, b := range blocks {
			b, next := b, blocks[(i+1)%n]
			rt.WithOnlyStaged(func(s *jade.Spec) { s.Rd(next); s.Wr(b) }, []jade.Segment{
				{Work: 5e-4, Release: []*jade.Object{next}},
				{Work: 1e-3},
			})
			rt.WithOnly(func(s *jade.Spec) { s.Rd(b) }, 3e-4, func() {})
		}
		rt.Wait()
		rt.Serial(1e-4, func() {}, func(s *jade.Spec) {
			for _, b := range blocks {
				s.Rd(b)
			}
		})
	}
}

// observedMachine builds one of the four machine models at its default
// locality level with the structured observer attached, and returns it
// with a function that snapshots the observer.
func observedMachine(machine string, procs int) (jade.Platform, func() *obsv.Snapshot) {
	obs := obsv.New(procs)
	snapshot := func() *obsv.Snapshot { return obs.Snapshot(0) }
	switch machine {
	case "dash":
		m := dash.New(dash.DefaultConfig(procs, dash.Locality))
		m.Sink = obs
		return m, snapshot
	case "ipsc":
		m := ipsc.New(ipsc.DefaultConfig(procs, ipsc.Locality))
		m.Sink = obs
		return m, snapshot
	case "pgas":
		m := pgas.New(pgas.DefaultConfig(procs, pgas.Affinity))
		m.Sink = obs
		return m, snapshot
	case "cluster":
		m := cluster.New(cluster.DefaultConfig(procs))
		m.Sink = obs
		return m, snapshot
	}
	panic("unknown machine " + machine)
}
