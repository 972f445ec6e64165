package pgas

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/apps/spmv"
	"repro/internal/fault"
	"repro/internal/jade"
	"repro/internal/metrics"
	"repro/internal/obsv"
)

func spmvCfg() spmv.Config {
	c := spmv.Small()
	c.N = 96
	c.Iterations = 2
	return c
}

// runSpmv executes the irregular workload on a fresh machine and
// returns the machine and its run.
func runSpmv(t *testing.T, procs int, level LocalityLevel, agg bool, inj *fault.Injector, obs bool) (*Machine, *metrics.Run) {
	t.Helper()
	cfg := DefaultConfig(procs, level)
	cfg.Aggregation = agg
	m := New(cfg)
	m.Inj = inj
	var o *obsv.Observer
	if obs {
		o = obsv.New(procs)
		m.Sink = o
	}
	rt := jade.New(m, jade.Config{})
	spmv.Run(rt, spmvCfg(), spmv.NewWorkload(spmvCfg()))
	r := rt.Finish()
	r.Obsv = o.Snapshot(0)
	return m, r
}

func reportJSON(t *testing.T, r *metrics.Run) []byte {
	t.Helper()
	b, err := json.MarshalIndent(r.Report(), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDeterministic(t *testing.T) {
	_, a := runSpmv(t, 8, Affinity, true, nil, true)
	_, b := runSpmv(t, 8, Affinity, true, nil, true)
	if !bytes.Equal(reportJSON(t, a), reportJSON(t, b)) {
		t.Fatal("identical runs produced different reports")
	}
}

func TestAggregationReducesMessages(t *testing.T) {
	_, on := runSpmv(t, 8, Affinity, true, nil, false)
	_, off := runSpmv(t, 8, Affinity, false, nil, false)
	if on.AggregatedMsgs == 0 || on.AggBenefitBytes == 0 {
		t.Fatalf("aggregation never batched: %d msgs, %d benefit bytes",
			on.AggregatedMsgs, on.AggBenefitBytes)
	}
	if on.MsgCount >= off.MsgCount {
		t.Fatalf("aggregation did not cut messages: on=%d off=%d", on.MsgCount, off.MsgCount)
	}
	if on.ExecTime >= off.ExecTime {
		t.Fatalf("aggregation did not help exec time: on=%g off=%g", on.ExecTime, off.ExecTime)
	}
	// The same one-sided operations happen either way; only the
	// message framing differs.
	if on.RemoteGets != off.RemoteGets || on.RemotePuts != off.RemotePuts {
		t.Fatalf("op counts changed with framing: gets %d/%d puts %d/%d",
			on.RemoteGets, off.RemoteGets, on.RemotePuts, off.RemotePuts)
	}
	if off.AggregatedMsgs != 0 || off.AggBenefitBytes != 0 {
		t.Fatalf("aggregation-off run reports batching: %d/%d",
			off.AggregatedMsgs, off.AggBenefitBytes)
	}
}

// runRegular builds a water-like regular pattern: per-locale replicas
// plus one shared block, so every task needs at most one remote get
// and one remote put. The aggregation layer must be provably inert on
// it.
func runRegular(t *testing.T, agg bool) *metrics.Run {
	t.Helper()
	const procs = 4
	cfg := DefaultConfig(procs, Affinity)
	cfg.Aggregation = agg
	m := New(cfg)
	rt := jade.New(m, jade.Config{})
	state := rt.Alloc("state", 4096, nil)
	reps := make([]*jade.Object, procs)
	for i := range reps {
		reps[i] = rt.Alloc("rep", 1024, nil, jade.OnProcessor(i))
	}
	for it := 0; it < 3; it++ {
		for i := range reps {
			i := i
			rt.WithOnly(func(s *jade.Spec) {
				s.RdWr(reps[i])
				s.Rd(state)
			}, 40e-6, func() {})
		}
		rt.Wait()
		rt.Serial(25e-6, func() {}, func(s *jade.Spec) {
			s.Rd(reps[0])
			s.Wr(state)
		})
	}
	return rt.Finish()
}

func TestAggregationNeutralForRegularAccess(t *testing.T) {
	on := reportJSON(t, runRegular(t, true))
	off := reportJSON(t, runRegular(t, false))
	if !bytes.Equal(on, off) {
		t.Fatalf("aggregation toggle changed a single-get workload:\non: %s\noff: %s", on, off)
	}
}

func TestInertInjectorByteIdentical(t *testing.T) {
	spec := fault.Spec{Seed: 1}
	if err := spec.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if spec.Active() {
		t.Fatal("spec unexpectedly active")
	}
	inj := fault.NewInjector(spec, 8)
	_, healthy := runSpmv(t, 8, Affinity, true, nil, false)
	_, inert := runSpmv(t, 8, Affinity, true, inj, false)
	if !bytes.Equal(reportJSON(t, healthy), reportJSON(t, inert)) {
		t.Fatal("inert injector changed the run")
	}
}

func TestFaultsDeterministicAndDegrading(t *testing.T) {
	spec := fault.Spec{Seed: 42, VictimClusters: 2, DegradedLinkPct: 0.3, Stragglers: 1}
	if err := spec.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	_, a := runSpmv(t, 8, Affinity, true, fault.NewInjector(spec, 8), false)
	_, b := runSpmv(t, 8, Affinity, true, fault.NewInjector(spec, 8), false)
	if !bytes.Equal(reportJSON(t, a), reportJSON(t, b)) {
		t.Fatal("same fault seed produced different runs")
	}
	_, healthy := runSpmv(t, 8, Affinity, true, nil, false)
	if a.ExecTime <= healthy.ExecTime {
		t.Fatalf("faults did not degrade the run: faulted=%g healthy=%g",
			a.ExecTime, healthy.ExecTime)
	}
}

func TestAccountingSane(t *testing.T) {
	for _, level := range []LocalityLevel{NoAffinity, Affinity} {
		_, r := runSpmv(t, 8, level, true, nil, false)
		if bad := r.OverBusy(); len(bad) != 0 {
			t.Fatalf("level %v: over-busy locales %v", level, bad)
		}
		if r.TaskCount == 0 || r.RemoteGets == 0 {
			t.Fatalf("level %v: no work recorded: %+v", level, r)
		}
	}
	// Affinity runs every task at its locality object's home.
	_, r := runSpmv(t, 8, Affinity, true, nil, false)
	if r.LocalityPct() != 100 {
		t.Fatalf("affinity scheduling off target: %.1f%%", r.LocalityPct())
	}
}

func TestSingleLocaleNoMessages(t *testing.T) {
	_, r := runSpmv(t, 1, Affinity, true, nil, false)
	if r.MsgCount != 0 || r.RemoteGets != 0 || r.RemotePuts != 0 {
		t.Fatalf("single locale communicated: %+v", r)
	}
}
