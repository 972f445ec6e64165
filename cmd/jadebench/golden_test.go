package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/apps/ocean"
	"repro/internal/cluster"
	"repro/internal/dash"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/golden"
	"repro/internal/ipsc"
	"repro/internal/jade"
	"repro/internal/metrics"
	"repro/internal/obsv"
	"repro/internal/pgas"
)

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

// TestGolden pins, one row per output under testdata/golden/, what the
// machines' instrumentation feeds: jadebench -cell's stdout and Perfetto
// export for registered cells on all four machines, and observed
// jade-metrics/v1 reports for the default run specs and for the
// scheduler, cost-model, fault and timed message paths they miss; and
// jadebench's paper-scale -markdown, -json and -granularity-report
// (skipped under -short). The instrumentation may be rebuilt freely as
// long as none of these bytes move; a deliberate change re-pins with
// go test ./cmd/jadebench -update and says why.
func TestGolden(t *testing.T) {
	var rows []golden.Row
	for _, c := range tracedCells() {
		out := golden.Once(func(t *testing.T) [2][]byte {
			pf := filepath.Join(t.TempDir(), "perfetto.json")
			args := []string{"-experiment", c.id, "-cell", strconv.Itoa(c.n), "-log", "-hot", "10", "-perfetto", pf}
			stdout := jadebench(t, args...)
			perfetto, err := os.ReadFile(pf)
			if err != nil {
				t.Fatal(err)
			}
			return [2][]byte{bytes.ReplaceAll(stdout, []byte(pf), []byte("OUT")), perfetto}
		})
		for i, ext := range []string{".txt", ".perfetto.json"} {
			rows = append(rows, golden.Row{Name: fmt.Sprintf("cell/%s/%d%s", c.id, c.n, ext),
				Produce: func(t *testing.T) []byte { return out(t)[i] }})
		}
	}

	type specRow struct {
		name string
		spec experiments.RunSpec
	}
	var specs []specRow
	// The default observed specs, an observed cluster cell and a faulted
	// iPSC cell (delivery attempts).
	for _, s := range append(experiments.DefaultRunSpecs(),
		experiments.RunSpec{App: "ocean", Machine: "cluster", Procs: 4},
		experiments.RunSpec{App: "water", Machine: "ipsc", Procs: 8, Fault: &fault.Spec{Seed: 7, DropPct: 0.05, DupPct: 0.02}}) {
		name := fmt.Sprintf("%s/%s/%d", s.App, s.Machine, s.Procs)
		if s.Fault != nil {
			name += "/faulted"
		}
		specs = append(specs, specRow{name, s})
	}
	on, off := true, false
	specs = append(specs, []specRow{
		// Scheduler and cost-model paths the default specs miss: pgas
		// under each fault kind and with no affinity, cluster at odd sizes
		// with and without the speed-aware pick, and the iPSC update
		// protocol.
		{"ocean/pgas/8/stragglers", experiments.RunSpec{App: "ocean", Machine: "pgas", Fault: &fault.Spec{Seed: 7, Stragglers: 2}}},
		{"ocean/pgas/8/links", experiments.RunSpec{App: "ocean", Machine: "pgas", Fault: &fault.Spec{Seed: 7, DegradedLinkPct: 0.3}}},
		{"ocean/pgas/8/victims", experiments.RunSpec{App: "ocean", Machine: "pgas", Fault: &fault.Spec{Seed: 7, VictimClusters: 2}}},
		{"ocean/pgas/8/none", experiments.RunSpec{App: "ocean", Machine: "pgas", Level: "none"}},
		{"water/cluster/1", experiments.RunSpec{App: "water", Machine: "cluster", Procs: 1}},
		{"water/cluster/1/speed-aware", experiments.RunSpec{App: "water", Machine: "cluster", Procs: 1, SpeedAware: true}},
		{"water/cluster/3", experiments.RunSpec{App: "water", Machine: "cluster", Procs: 3}},
		{"water/cluster/3/speed-aware", experiments.RunSpec{App: "water", Machine: "cluster", Procs: 3, SpeedAware: true}},
		{"water/ipsc/8/none/eager", experiments.RunSpec{App: "water", Machine: "ipsc", Level: "none", EagerUpdate: true}},

		// The timed message paths: the serial fetch chain, coalesced
		// fetches (at levels where some task reads two objects from one
		// owner), eager pushes beside adaptive broadcasts, unaggregated
		// PGAS gets and puts, and the cluster's fetch reply.
		{"ocean/ipsc/8/none/serial", experiments.RunSpec{App: "ocean", Machine: "ipsc", Level: "none", ConcurrentFetch: &off}},
		{"ocean/ipsc/8/locality/serial", experiments.RunSpec{App: "ocean", Machine: "ipsc", Level: "locality", ConcurrentFetch: &off}},
		{"ocean/ipsc/8/none/coalescing", experiments.RunSpec{App: "ocean", Machine: "ipsc", Level: "none", Coalescing: true}},
		{"cholesky/ipsc/8/locality/coalescing", experiments.RunSpec{App: "cholesky", Machine: "ipsc", Level: "locality", Coalescing: true}},
		{"cholesky/ipsc/8/none/coalescing/serial", experiments.RunSpec{App: "cholesky", Machine: "ipsc", Level: "none", Coalescing: true, ConcurrentFetch: &off}},
		{"spmv/ipsc/8/locality/coalescing", experiments.RunSpec{App: "spmv", Machine: "ipsc", Level: "locality", Coalescing: true}},
		{"water/ipsc/8/locality/eager+bcast", experiments.RunSpec{App: "water", Machine: "ipsc", Level: "locality", EagerUpdate: true, AdaptiveBroadcast: &on}},
		{"spmv/pgas/8/no-aggregation", experiments.RunSpec{App: "spmv", Machine: "pgas", Aggregation: &off}},
		{"cholesky/cluster/4", experiments.RunSpec{App: "cholesky", Machine: "cluster", Procs: 4}},
	}...)
	for _, c := range specs {
		s := c.spec
		s.Observe = true
		if s.Procs == 0 {
			s.Procs = 8
		}
		rows = append(rows, metricsRow(c.name, func(t *testing.T) *metrics.Run {
			r, err := s.Execute(experiments.Small)
			switch {
			case err != nil:
				t.Fatal(err)
			case r.Obsv == nil:
				t.Fatal("observed run carries no snapshot")
			case strings.HasSuffix(c.name, "faulted") && r.Obsv.DeliveryAttempts == nil:
				t.Fatal("faulted run recorded no delivery attempts")
			case strings.Contains(c.name, "coalescing") && r.MsgsCoalesced == 0:
				t.Fatal("no fetch was coalesced")
			case strings.Contains(c.name, "bcast") && r.BroadcastCount == 0:
				t.Fatal("no version was broadcast")
			}
			return r
		}))
	}

	// pgas with two tasks per locale, which RunSpec offers only on ipsc.
	for name, level := range map[string]pgas.LocalityLevel{"none": pgas.NoAffinity, "placement": pgas.TaskPlacement} {
		rows = append(rows, metricsRow("direct/ocean/pgas/"+name+"/target2", func(t *testing.T) *metrics.Run {
			cfg := pgas.DefaultConfig(8, level)
			cfg.TargetTasks = 2
			m := pgas.New(cfg)
			obs := obsv.New(8)
			m.Sink = obs
			rt := jade.New(m, jade.Config{})
			oc := ocean.Small()
			oc.Place = level == pgas.TaskPlacement
			ocean.Run(rt, oc)
			return observed(t, "pgas", rt.Finish(), obs)
		}))
	}

	// DASH with caches small enough that Ocean evicts: the run must
	// differ from the default-sized one, or nothing was evicted.
	rows = append(rows, metricsRow("direct/ocean/dash/8/cache8k", func(t *testing.T) *metrics.Run {
		var runs [2]*metrics.Run
		for i, cacheBytes := range []int{dash.DefaultConfig(8, dash.Locality).CacheBytes, 8 << 10} {
			cfg := dash.DefaultConfig(8, dash.Locality)
			cfg.CacheBytes = cacheBytes
			m := dash.New(cfg)
			obs := obsv.New(8)
			m.Sink = obs
			rt := jade.New(m, jade.Config{})
			ocean.Run(rt, ocean.Small())
			runs[i] = observed(t, "dash", rt.Finish(), obs)
		}
		if bytes.Equal(metricsJSON(t, runs[0]), metricsJSON(t, runs[1])) {
			t.Fatal("the small cache changed nothing")
		}
		return runs[1]
	}))

	for _, machine := range []string{"dash", "ipsc", "pgas", "cluster"} {
		rows = append(rows, metricsRow("staged/"+machine, func(t *testing.T) *metrics.Run {
			p, obs := observedMachine(machine, 4)
			rt := jade.New(p, jade.Config{})
			stagedProgram(rt)
			return observed(t, machine, rt.Finish(), obs)
		}))
	}

	// The staged program on a lossy iPSC: retransmits straddle segment
	// boundaries and early releases.
	rows = append(rows, metricsRow("staged/ipsc/drop", func(t *testing.T) *metrics.Run {
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
			t.Fatal("no message was retransmitted")
		}
		return observed(t, "ipsc", r, obs)
	}))

	paper := func(args ...string) func(t *testing.T) []byte {
		return func(t *testing.T) []byte {
			if testing.Short() {
				t.Skip("paper scale is skipped under -short")
			}
			return jadebench(t, append(args, "-scale", "paper")...)
		}
	}
	rows = append(rows,
		golden.Row{Name: "paper/all.md", Produce: paper("-experiment", "all", "-markdown")},
		golden.Row{Name: "paper/all.json", Produce: paper("-experiment", "all", "-json")},
		golden.Row{Name: "paper/granularity.json", Produce: paper("-granularity-report")})
	golden.Run(t, rows)
}

// jadebench runs the command with args and returns its stdout.
func jadebench(t *testing.T, args ...string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("jadebench %s: exit %d: %s", strings.Join(args, " "), code, stderr.String())
	}
	return stdout.Bytes()
}

// metricsRow pins the jade-metrics/v1 report of the run produce
// returns, under metrics/ with name's slashes as dashes.
func metricsRow(name string, produce func(t *testing.T) *metrics.Run) golden.Row {
	return golden.Row{Name: "metrics/" + strings.ReplaceAll(name, "/", "-") + ".json",
		Produce: func(t *testing.T) []byte { return metricsJSON(t, produce(t)) }}
}

// observed attaches the observer's snapshot to a run observed outside
// RunSpec.Execute, once experiments.Agree, which Execute applies to
// every observed run, has checked that the observer's per-object bytes
// and replicated reads equal the run's counters.
func observed(t *testing.T, machine string, r *metrics.Run, obs *obsv.Observer) *metrics.Run {
	t.Helper()
	if err := experiments.Agree(machine, r, obs); err != nil {
		t.Error(err)
	}
	r.Obsv = obs.Snapshot(0)
	return r
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
