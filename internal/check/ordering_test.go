package check

import (
	"testing"

	"repro/internal/apps/ocean"
	"repro/internal/dash"
	"repro/internal/ipsc"
	"repro/internal/jade"
	"repro/internal/obsv"
	"repro/internal/trace"
)

// oceanTrace runs a small Ocean on the given pre-built machine and
// returns its recorded trace.
func oceanTrace(t *testing.T, m jade.Platform, tr *trace.Trace) *trace.Trace {
	t.Helper()
	rt := jade.New(m, jade.Config{})
	cfg := ocean.Small()
	cfg.N = 32
	cfg.Iterations = 4
	ocean.Run(rt, cfg)
	rt.Finish()
	if len(tr.Events()) == 0 {
		t.Fatal("trace recorded no events")
	}
	return tr
}

func TestEventOrderingOceanOnDash(t *testing.T) {
	tr := trace.New()
	m := dash.New(dash.DefaultConfig(4, dash.Locality))
	m.Sink = tr
	if err := EventOrdering(oceanTrace(t, m, tr)); err != nil {
		t.Fatal(err)
	}
}

func TestEventOrderingOceanOnIpsc(t *testing.T) {
	tr := trace.New()
	m := ipsc.New(ipsc.DefaultConfig(4, ipsc.Locality))
	m.Sink = tr
	if err := EventOrdering(oceanTrace(t, m, tr)); err != nil {
		t.Fatal(err)
	}
}

func TestEventOrderingCatchesRegression(t *testing.T) {
	tr := trace.New()
	tr.Record(obsv.Event{Kind: obsv.Created, Task: 7, At: 0.5})
	tr.Record(obsv.Event{Kind: obsv.ExecStart, Task: 7, At: 0.4})
	tr.Record(obsv.Event{Kind: obsv.ExecEnd, Task: 7, At: 0.4, End: 0.6}) // starts before creation
	if err := EventOrdering(tr); err == nil {
		t.Fatal("exec before creation not detected")
	}
}

func TestEventOrderingToleratesAbsentKinds(t *testing.T) {
	// A model that emits only exec spans (no created/enabled/assigned)
	// must still pass: absent kinds are skipped, not required.
	tr := trace.New()
	tr.Record(obsv.Event{Kind: obsv.ExecStart, At: 0.1})
	tr.Record(obsv.Event{Kind: obsv.ExecEnd, At: 0.1, End: 0.2})
	if err := EventOrdering(tr); err != nil {
		t.Fatal(err)
	}
}

func TestEventOrderingStagedExecEnd(t *testing.T) {
	// A task with several exec-end lines is validated against the last
	// one, which must follow everything else.
	tr := trace.New()
	tr.Record(obsv.Event{Kind: obsv.Created, Task: 3, At: 0.0})
	tr.Record(obsv.Event{Kind: obsv.ExecStart, Task: 3, At: 0.1})
	tr.Record(obsv.Event{Kind: obsv.ExecEnd, Task: 3, At: 0.1, End: 0.2})
	tr.Record(obsv.Event{Kind: obsv.ExecStart, Task: 3, At: 0.3})
	tr.Record(obsv.Event{Kind: obsv.ExecEnd, Task: 3, At: 0.3, End: 0.4})
	if err := EventOrdering(tr); err != nil {
		t.Fatal(err)
	}
}
