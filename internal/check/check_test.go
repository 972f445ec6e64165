package check

import (
	"testing"

	"repro/internal/apps/cholesky"
	"repro/internal/apps/ocean"
	"repro/internal/cluster"
	"repro/internal/dash"
	"repro/internal/ipsc"
	"repro/internal/jade"
	"repro/internal/obsv"
	"repro/internal/pgas"
	"repro/internal/trace"
)

func TestValidateOceanOnDash(t *testing.T) {
	for _, level := range []dash.LocalityLevel{dash.NoLocality, dash.Locality} {
		tr := trace.New()
		m := dash.New(dash.DefaultConfig(6, level))
		m.Sink = tr
		rt := jade.New(m, jade.Config{})
		cfg := ocean.Small()
		cfg.N = 32
		cfg.Iterations = 5
		ocean.Run(rt, cfg)
		rt.Finish()
		if err := Validate(tr, rt.Tasks()); err != nil {
			t.Fatalf("level %v: %v", level, err)
		}
	}
}

func TestValidateCholeskyOnIpsc(t *testing.T) {
	for _, level := range []ipsc.LocalityLevel{ipsc.NoLocality, ipsc.Locality} {
		tr := trace.New()
		m := ipsc.New(ipsc.DefaultConfig(5, level))
		m.Sink = tr
		rt := jade.New(m, jade.Config{})
		cfg := cholesky.Small()
		w := cholesky.NewWorkload(cfg)
		cholesky.Run(rt, cfg, w)
		rt.Finish()
		if err := Validate(tr, rt.Tasks()); err != nil {
			t.Fatalf("level %v: %v", level, err)
		}
	}
}

// Every machine model feeds the same event stream, so the schedule
// checks run on the PGAS and workstation-cluster models too: every
// task executes exactly once, conflicting tasks stay ordered, and each
// task's lifecycle is in order.
func TestValidateAndOrderingOnPgasAndCluster(t *testing.T) {
	machines := []struct {
		name string
		new  func(tr *trace.Trace) jade.Platform
	}{
		{"pgas", func(tr *trace.Trace) jade.Platform {
			m := pgas.New(pgas.DefaultConfig(5, pgas.Affinity))
			m.Sink = tr
			return m
		}},
		{"cluster", func(tr *trace.Trace) jade.Platform {
			m := cluster.New(cluster.DefaultConfig(5))
			m.Sink = tr
			return m
		}},
	}
	apps := []struct {
		name string
		run  func(rt *jade.Runtime)
	}{
		{"ocean", func(rt *jade.Runtime) {
			cfg := ocean.Small()
			cfg.N = 32
			cfg.Iterations = 4
			ocean.Run(rt, cfg)
		}},
		{"cholesky", func(rt *jade.Runtime) {
			cfg := cholesky.Small()
			cholesky.Run(rt, cfg, cholesky.NewWorkload(cfg))
		}},
	}
	for _, m := range machines {
		for _, a := range apps {
			tr := trace.New()
			rt := jade.New(m.new(tr), jade.Config{})
			a.run(rt)
			rt.Finish()
			spans, err := Spans(tr)
			if err != nil {
				t.Fatalf("%s/%s: %v", a.name, m.name, err)
			}
			if len(spans) != len(rt.Tasks()) {
				t.Fatalf("%s/%s: %d exec spans for %d tasks", a.name, m.name, len(spans), len(rt.Tasks()))
			}
			if err := Validate(tr, rt.Tasks()); err != nil {
				t.Fatalf("%s/%s: %v", a.name, m.name, err)
			}
			if err := EventOrdering(tr); err != nil {
				t.Fatalf("%s/%s: %v", a.name, m.name, err)
			}
		}
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	// Two writers of the same object: each row hand-builds a corrupt
	// trace of their execution.
	m := dash.New(dash.DefaultConfig(2, dash.Locality))
	rt := jade.New(m, jade.Config{})
	o := rt.Alloc("x", 8, nil)
	rt.WithOnly(func(s *jade.Spec) { s.Wr(o) }, 1e-3, func() {})
	rt.WithOnly(func(s *jade.Spec) { s.Wr(o) }, 1e-3, func() {})
	rt.Finish()

	start := func(task int, at float64) obsv.Event {
		return obsv.Event{Kind: obsv.ExecStart, Task: task, Proc: task, At: at}
	}
	end := func(task int, at, end float64) obsv.Event {
		return obsv.Event{Kind: obsv.ExecEnd, Task: task, Proc: task, At: at, End: end}
	}
	for _, row := range []struct {
		name   string
		events []obsv.Event
	}{
		{"task 1 overlaps task 0", []obsv.Event{start(0, 0), end(0, 0, 2), start(1, 1), end(1, 1, 3)}},
		{"task 1 never ends", []obsv.Event{start(0, 0), end(0, 0, 2), start(1, 2)}},
		{"task 1 has no exec span", []obsv.Event{start(0, 0), end(0, 0, 2)}},
	} {
		tr := trace.New()
		for _, e := range row.events {
			tr.Record(e)
		}
		if err := Validate(tr, rt.Tasks()); err == nil {
			t.Errorf("%s: not detected", row.name)
		}
	}
}

func TestSpansRejectMalformedTrace(t *testing.T) {
	tr := trace.New()
	tr.Record(obsv.Event{Kind: obsv.ExecStart})
	if _, err := Spans(tr); err == nil {
		t.Fatal("unfinished span not detected")
	}

	tr2 := trace.New()
	tr2.Record(obsv.Event{Kind: obsv.ExecEnd})
	if _, err := Spans(tr2); err == nil {
		t.Fatal("end-without-start not detected")
	}

	tr3 := trace.New()
	tr3.Record(obsv.Event{Kind: obsv.ExecStart, At: 0})
	tr3.Record(obsv.Event{Kind: obsv.ExecEnd, At: 0, End: 1})
	tr3.Record(obsv.Event{Kind: obsv.ExecStart, At: 2})
	tr3.Record(obsv.Event{Kind: obsv.ExecEnd, At: 2, End: 3})
	if _, err := Spans(tr3); err == nil {
		t.Fatal("re-execution not detected")
	}

	// Segments of a staged task are not executions: only its one
	// exec span counts.
	tr4 := trace.New()
	tr4.Record(obsv.Event{Kind: obsv.ExecStart, At: 0})
	tr4.Record(obsv.Event{Kind: obsv.Segment, At: 0, End: 1})
	tr4.Record(obsv.Event{Kind: obsv.Segment, At: 1, End: 2})
	tr4.Record(obsv.Event{Kind: obsv.ExecEnd, At: 2, End: 2, Flag: true})
	if got, err := Spans(tr4); err != nil || len(got) != 1 {
		t.Fatalf("staged task spans = %v, %v; want one span", got, err)
	}
}

func TestValidateAllowsIndependentOverlap(t *testing.T) {
	m := dash.New(dash.DefaultConfig(2, dash.Locality))
	rt := jade.New(m, jade.Config{})
	a := rt.Alloc("a", 8, nil)
	b := rt.Alloc("b", 8, nil)
	rt.WithOnly(func(s *jade.Spec) { s.Wr(a) }, 1e-3, func() {})
	rt.WithOnly(func(s *jade.Spec) { s.Wr(b) }, 1e-3, func() {})
	rt.Finish()

	tr := spans([2]float64{0, 2}, [2]float64{1, 3})
	if err := Validate(tr, rt.Tasks()); err != nil {
		t.Fatalf("independent overlap rejected: %v", err)
	}
}

func TestValidateReadersMayOverlap(t *testing.T) {
	m := dash.New(dash.DefaultConfig(2, dash.Locality))
	rt := jade.New(m, jade.Config{})
	o := rt.Alloc("o", 8, nil)
	rt.WithOnly(func(s *jade.Spec) { s.Rd(o) }, 1e-3, func() {})
	rt.WithOnly(func(s *jade.Spec) { s.Rd(o) }, 1e-3, func() {})
	rt.Finish()

	tr := spans([2]float64{0, 2}, [2]float64{1, 3})
	if err := Validate(tr, rt.Tasks()); err != nil {
		t.Fatalf("concurrent readers rejected: %v", err)
	}
}

// spans builds a trace of one exec span per task, task i on processor
// i.
func spans(ss ...[2]float64) *trace.Trace {
	tr := trace.New()
	for i, s := range ss {
		tr.Record(obsv.Event{Kind: obsv.ExecStart, Task: i, Proc: i, At: s[0]})
		tr.Record(obsv.Event{Kind: obsv.ExecEnd, Task: i, Proc: i, At: s[0], End: s[1]})
	}
	return tr
}
