package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
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
// An observed report is pinned as two digests, the report without its
// observability block and the block itself (".../obsv"), and a -cell
// stdout as the output without its hot-object section and the section
// itself (".../hot"), so a change to the per-object view shows apart
// from the rest.
var wantDigests = map[string]string{
	"cell/extension-portability/10":          "5a705e9c5e6073e0",
	"cell/extension-portability/10/hot":      "90c1e44bcbdc4c8d",
	"cell/extension-portability/10/perfetto": "203603baafc4257c",
	"cell/fault-sweep/42":                    "dd929828cb3bb775",
	"cell/fault-sweep/42/hot":                "0b20c38e0da47edd",
	"cell/fault-sweep/42/perfetto":           "b5d940299faf2859",
	"cell/fig10/9":                           "677e3e32ee59781a",
	"cell/fig10/9/hot":                       "e626034eb2eb7ae0",
	"cell/fig10/9/perfetto":                  "788690e3ae1cb118",
	"cell/pgas-compare/8":                    "8f2ca3ab26332e7a",
	"cell/pgas-compare/8/hot":                "0e777ba86a60c5b4",
	"cell/pgas-compare/8/perfetto":           "d3e9c4ee8c7d0717",
	"cell/table10/16":                        "13be4e36abb8b328",
	"cell/table10/16/hot":                    "89091221ed9cd30c",
	"cell/table10/16/perfetto":               "d9148b511d7749ec",
	"cell/table10/2":                         "bd67892af591e6d2",
	"cell/table10/2/hot":                     "d09a3bce854aea14",
	"cell/table10/2/perfetto":                "8fc377d143a7c1d0",
	"cell/table10/9":                         "f2512deea7f40519",
	"cell/table10/9/hot":                     "adb3bf1f32994ac2",
	"cell/table10/9/perfetto":                "a5904030b638fa26",
	"cell/table2/2":                          "81dd1de15f720509",
	"cell/table2/2/hot":                      "68c7f74776ce0116",
	"cell/table2/2/perfetto":                 "b89229f226d3c681",
	"cell/table2/9":                          "c4d8cad08a043bb1",
	"cell/table2/9/hot":                      "ff96efc10390225c",
	"cell/table2/9/perfetto":                 "c8039426ddd23c40",
	"cell/table3/2":                          "abb3f0f021f561f4",
	"cell/table3/2/hot":                      "50696e78ecf84618",
	"cell/table3/2/perfetto":                 "5f472c6ad5cd9c31",
	"cell/table3/9":                          "5571af52e6fb58cf",
	"cell/table3/9/hot":                      "50ac83d1e8de0d03",
	"cell/table3/9/perfetto":                 "7aef6698f696219d",
	"cell/table4/16":                         "b859d1cad30cd7c0",
	"cell/table4/16/hot":                     "e9396544afbc12ac",
	"cell/table4/16/perfetto":                "0b579d3c799ec788",
	"cell/table4/2":                          "1ac903d297c5f831",
	"cell/table4/2/hot":                      "5709fa071d148676",
	"cell/table4/2/perfetto":                 "5b9ff8fa1f101245",
	"cell/table4/9":                          "e42e5b6413c0f192",
	"cell/table4/9/hot":                      "b376febada2fbd82",
	"cell/table4/9/perfetto":                 "394eb4c168246b30",
	"cell/table5/16":                         "d69118228638c8fb",
	"cell/table5/16/hot":                     "6512b7f549ac2d32",
	"cell/table5/16/perfetto":                "ce4828b135d9baf7",
	"cell/table5/2":                          "9e9e909c2acf66e4",
	"cell/table5/2/hot":                      "80c21b64b4c5e633",
	"cell/table5/2/perfetto":                 "ff8b9164353a9d03",
	"cell/table5/9":                          "11b1d1acc470180f",
	"cell/table5/9/hot":                      "994aad25637b4f33",
	"cell/table5/9/perfetto":                 "0263d279439be3c2",
	"cell/table7/2":                          "548916f9f468545f",
	"cell/table7/2/hot":                      "874a3d90a426bb0f",
	"cell/table7/2/perfetto":                 "dd3643be3b38fbb6",
	"cell/table7/9":                          "4e4a0471fabc9353",
	"cell/table7/9/hot":                      "e3cac19632932dca",
	"cell/table7/9/perfetto":                 "6c872b56c9a8375c",
	"cell/table8/2":                          "94d8f26271534bbd",
	"cell/table8/2/hot":                      "e4df1bba32fc65a8",
	"cell/table8/2/perfetto":                 "df82723810b3fcff",
	"cell/table8/9":                          "640705b93c438003",
	"cell/table8/9/hot":                      "51c6e50f34cca5b6",
	"cell/table8/9/perfetto":                 "20af23254b33ba41",
	"cell/table9/16":                         "68487363f2859fc2",
	"cell/table9/16/hot":                     "7972def4bdaf3932",
	"cell/table9/16/perfetto":                "fb319004a7d6db76",
	"cell/table9/2":                          "df180da350864bd4",
	"cell/table9/2/hot":                      "20ccff62bcd6198a",
	"cell/table9/2/perfetto":                 "880c9eafe7025886",
	"cell/table9/9":                          "09f1983fa19d4eb2",
	"cell/table9/9/hot":                      "d26cb9980211f42e",
	"cell/table9/9/perfetto":                 "e3a7172e0d39dc50",

	"metrics/cholesky/dash/8":           "2b8279f2e63eb934",
	"metrics/cholesky/dash/8/obsv":      "4e2be7e1a87b132d",
	"metrics/cholesky/ipsc/8":           "bf6edc2955efed57",
	"metrics/cholesky/ipsc/8/obsv":      "efcedf5fbea32f9e",
	"metrics/ocean/cluster/4":           "e6fdd09c1f3474fd",
	"metrics/ocean/cluster/4/obsv":      "4bb1dd55cd0a8d19",
	"metrics/ocean/dash/8":              "9ffd4b8dc074f3ce",
	"metrics/ocean/dash/8/obsv":         "0967527fb755a089",
	"metrics/ocean/ipsc/8":              "d3878cc0df7d5995",
	"metrics/ocean/ipsc/8/obsv":         "91edbcf670a95105",
	"metrics/spmv/dash/8":               "92ada4aeebe06e4b",
	"metrics/spmv/dash/8/obsv":          "a7d8d2ec439e8367",
	"metrics/spmv/ipsc/8":               "21e3993c17ec6f77",
	"metrics/spmv/ipsc/8/obsv":          "0ca752caca08dc43",
	"metrics/spmv/pgas/8":               "827c0bdf0693a61a",
	"metrics/spmv/pgas/8/obsv":          "96395f1ebac06a92",
	"metrics/string/dash/8":             "6728e9f936df9885",
	"metrics/string/dash/8/obsv":        "8c2532546688c9ec",
	"metrics/string/ipsc/8":             "8b543ad4d378830c",
	"metrics/string/ipsc/8/obsv":        "26f5956dea634fb8",
	"metrics/water/dash/8":              "ac1405c89cbe108a",
	"metrics/water/dash/8/obsv":         "e4dbea1de7ec497d",
	"metrics/water/ipsc/8":              "e213b64ef527f531",
	"metrics/water/ipsc/8/obsv":         "b7d66a3c69ac1dc2",
	"metrics/water/ipsc/8/faulted":      "2a47a717d2c5b226",
	"metrics/water/ipsc/8/faulted/obsv": "9da48a23fe151dcc",
	"staged/cluster":                    "bf82897d6eb09644",
	"staged/cluster/obsv":               "552721e478a2cf86",
	"staged/dash":                       "bdda1d2c567628e8",
	"staged/dash/obsv":                  "e5b11699af0c7e02",
	"staged/ipsc":                       "0ada81dd15b190a7",
	"staged/ipsc/obsv":                  "054286d7e6daa3f7",
	"staged/pgas":                       "2e6183a2f9124b3b",
	"staged/pgas/obsv":                  "b77e1f1c9334205d",

	// Scheduler and cost-model paths the rows above miss.
	"direct/ocean/pgas/none/target2":           "8f1bacd6c5b5233a",
	"direct/ocean/pgas/none/target2/obsv":      "f941ec6213b5747c",
	"direct/ocean/pgas/placement/target2":      "00ed05629ea2e6e5",
	"direct/ocean/pgas/placement/target2/obsv": "dcd5b73b8e990e04",
	"metrics/ocean/pgas/8/links":               "7474b386d7a2fbce",
	"metrics/ocean/pgas/8/links/obsv":          "782b6f70776148ca",
	"metrics/ocean/pgas/8/none":                "1388489d25a087dc",
	"metrics/ocean/pgas/8/none/obsv":           "23def1ea2b9fc08b",
	"metrics/ocean/pgas/8/stragglers":          "cbde4cf065876434",
	"metrics/ocean/pgas/8/stragglers/obsv":     "2a31bbce42848885",
	"metrics/ocean/pgas/8/victims":             "c0ad787ca122e6d0",
	"metrics/ocean/pgas/8/victims/obsv":        "e7f80222347d4a29",
	"metrics/water/cluster/1":                  "05e14b4a3eff0962",
	"metrics/water/cluster/1/obsv":             "21f45ee3ac3f5dfb",
	"metrics/water/cluster/1/speed-aware":      "05e14b4a3eff0962",
	"metrics/water/cluster/1/speed-aware/obsv": "21f45ee3ac3f5dfb",
	"metrics/water/cluster/3":                  "a7b14c0276cea515",
	"metrics/water/cluster/3/obsv":             "635fcd13db94f6f2",
	"metrics/water/cluster/3/speed-aware":      "604b1bdd7050ea3f",
	"metrics/water/cluster/3/speed-aware/obsv": "98ee21d77c04bbe1",
	"metrics/water/ipsc/8/none/eager":          "4ced2cd7f3ad047b",
	"metrics/water/ipsc/8/none/eager/obsv":     "bacb27fd8afdbf73",
	"staged/ipsc/drop":                         "911ee7e543c57d9d",
	"staged/ipsc/drop/obsv":                    "6c8380efe006d68b",

	// The timed message paths and the DASH cache under eviction.
	"direct/ocean/dash/8/cache8k":                         "2efb8a0d0480e250",
	"direct/ocean/dash/8/cache8k/obsv":                    "333eaa45113c416e",
	"metrics/cholesky/cluster/4":                          "f6538ad89a1359cd",
	"metrics/cholesky/cluster/4/obsv":                     "898831f2a540a54c",
	"metrics/cholesky/ipsc/8/locality/coalescing":         "ea3a654dfeedb1ee",
	"metrics/cholesky/ipsc/8/locality/coalescing/obsv":    "2291679fe87f05b1",
	"metrics/cholesky/ipsc/8/none/coalescing/serial":      "805f3e3b2220ba5e",
	"metrics/cholesky/ipsc/8/none/coalescing/serial/obsv": "5e8803a562d147db",
	"metrics/ocean/ipsc/8/locality/serial":                "d687c563752f968c",
	"metrics/ocean/ipsc/8/locality/serial/obsv":           "fd9a368ea7039ba0",
	"metrics/ocean/ipsc/8/none/coalescing":                "7a8fb321d593eb59",
	"metrics/ocean/ipsc/8/none/coalescing/obsv":           "d90578fb79cb0f0b",
	"metrics/ocean/ipsc/8/none/serial":                    "b3478fd1004fd915",
	"metrics/ocean/ipsc/8/none/serial/obsv":               "20ccc236b0cc1939",
	"metrics/spmv/ipsc/8/locality/coalescing":             "b6810d8682845970",
	"metrics/spmv/ipsc/8/locality/coalescing/obsv":        "bf486b94c07b134e",
	"metrics/spmv/pgas/8/no-aggregation":                  "e0c8b33d3482e2ed",
	"metrics/spmv/pgas/8/no-aggregation/obsv":             "28fd8129cf78036c",
	"metrics/water/ipsc/8/locality/eager+bcast":           "0f047d63b4aa4a21",
	"metrics/water/ipsc/8/locality/eager+bcast/obsv":      "1251e01597b4db8f",
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
		rest, hot := splitHot(t, bytes.ReplaceAll(stdout.Bytes(), []byte(pf), []byte("OUT")))
		got[name] = digest(rest)
		got[name+"/hot"] = digest(hot)
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
		pinReport(t, got, name, r)
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
		pinReport(t, got, name, r)
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
		pinObserved(t, got, "direct/ocean/pgas/"+name+"/target2", "pgas", rt.Finish(), obs)
	}

	// DASH with caches small enough that Ocean evicts: the run must
	// differ from the default-sized one, or nothing was evicted.
	var dashOcean [2]string
	var evicted *metrics.Run
	var evictedObs *obsv.Observer
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
		evicted, evictedObs = r, obs
	}
	if dashOcean[0] == dashOcean[1] {
		t.Fatal("direct/ocean/dash/8/cache8k: the small cache changed nothing")
	}
	pinObserved(t, got, "direct/ocean/dash/8/cache8k", "dash", evicted, evictedObs)

	for _, machine := range []string{"dash", "ipsc", "pgas", "cluster"} {
		p, obs := observedMachine(machine, 4)
		rt := jade.New(p, jade.Config{})
		stagedProgram(rt)
		pinObserved(t, got, "staged/"+machine, machine, rt.Finish(), obs)
	}

	// The staged program on a lossy iPSC: retransmits straddle segment
	// boundaries and early releases.
	p, obs := observedMachine("ipsc", 4)
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
	pinObserved(t, got, "staged/ipsc/drop", "ipsc", r, obs)

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

// splitHot returns a jadebench -cell stdout without its hot-object
// section, and the section on its own: from the "hot objects" line
// through the "task wait:" line, which must follow the header.
func splitHot(t *testing.T, out []byte) (rest, hot []byte) {
	t.Helper()
	i := bytes.Index(out, []byte("hot objects ("))
	if i < 0 {
		return out, nil
	}
	j := bytes.Index(out[i:], []byte("\ntask wait:"))
	if j < 0 {
		t.Fatal("jadebench -cell: a hot-object section with no closing \"task wait:\" line")
	}
	j += i + 1
	k := j + bytes.IndexByte(out[j:], '\n') + 1
	return append(out[:i:i], out[k:]...), out[i:k]
}

// pinObserved pins the report of a run observed outside
// RunSpec.Execute (pinReport), once experiments.Agree, which Execute
// applies to every observed run, has checked that the observer's
// per-object bytes and replicated reads equal the run's counters.
func pinObserved(t *testing.T, got map[string]string, name, machine string, r *metrics.Run, obs *obsv.Observer) {
	t.Helper()
	if err := experiments.Agree(machine, r, obs); err != nil {
		t.Errorf("%s: %v", name, err)
	}
	r.Obsv = obs.Snapshot(0)
	pinReport(t, got, name, r)
}

// pinReport pins an observed run's jade-metrics/v1 report as two
// digests: name is the report without its observability block, and
// name+"/obsv" the block on its own.
func pinReport(t *testing.T, got map[string]string, name string, r *metrics.Run) {
	t.Helper()
	snap := r.Obsv
	r.Obsv = nil
	got[name] = digest(metricsJSON(t, r))
	r.Obsv = snap
	block, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	got[name+"/obsv"] = digest(block)
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
// with the observer.
func observedMachine(machine string, procs int) (jade.Platform, *obsv.Observer) {
	obs := obsv.New(procs)
	switch machine {
	case "dash":
		m := dash.New(dash.DefaultConfig(procs, dash.Locality))
		m.Sink = obs
		return m, obs
	case "ipsc":
		m := ipsc.New(ipsc.DefaultConfig(procs, ipsc.Locality))
		m.Sink = obs
		return m, obs
	case "pgas":
		m := pgas.New(pgas.DefaultConfig(procs, pgas.Affinity))
		m.Sink = obs
		return m, obs
	case "cluster":
		m := cluster.New(cluster.DefaultConfig(procs))
		m.Sink = obs
		return m, obs
	}
	panic("unknown machine " + machine)
}
