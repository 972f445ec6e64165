package jade_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dash"
	"repro/internal/ipsc"
	"repro/internal/jade"
	"repro/internal/pgas"
)

// A work-free staged task keeps its segments and runs no body; the
// machines, not the runtime, run it as one plain task. On every machine
// a work-free run of a staged program equals the same run with the
// segments removed.
func TestStagedWorkFreeDegradesToPlainTask(t *testing.T) {
	platforms := map[string]func() jade.Platform{
		"dash":    func() jade.Platform { return dash.New(dash.DefaultConfig(2, dash.Locality)) },
		"ipsc":    func() jade.Platform { return ipsc.New(ipsc.DefaultConfig(2, ipsc.Locality)) },
		"pgas":    func() jade.Platform { return pgas.New(pgas.DefaultConfig(2, pgas.Affinity)) },
		"cluster": func() jade.Platform { return cluster.New(cluster.DefaultConfig(2)) },
	}
	// run executes the program work-free, its first task staged or not,
	// and returns the first task and the run's report.
	run := func(t *testing.T, p jade.Platform, staged bool) (*jade.Task, []byte) {
		rt := jade.New(p, jade.Config{WorkFree: true})
		a := rt.Alloc("a", 8192, nil)
		b := rt.Alloc("b", 8192, nil, jade.OnProcessor(1))
		spec := func(s *jade.Spec) { s.Wr(a); s.Wr(b) }
		ran := func() { t.Fatal("work-free run executed a body") }
		var first *jade.Task
		if staged {
			first = rt.WithOnlyStaged(spec, []jade.Segment{
				{Work: 2e-3, Body: ran, Release: []*jade.Object{a}},
				{Work: 4e-3, Body: ran},
			})
		} else {
			first = rt.WithOnly(spec, 6e-3, ran)
		}
		rt.WithOnly(func(s *jade.Spec) { s.Rd(a) }, 1e-2, nil)
		rt.WithOnly(func(s *jade.Spec) { s.Rd(b) }, 1e-3, nil)
		out, err := json.Marshal(rt.Finish().Report())
		if err != nil {
			t.Fatal(err)
		}
		return first, out
	}
	for _, name := range []string{"dash", "ipsc", "pgas", "cluster"} {
		platform := platforms[name]
		t.Run(name, func(t *testing.T) {
			task, staged := run(t, platform(), true)
			if len(task.Segments) != 2 {
				t.Fatalf("work-free staged task kept %d segments, want 2", len(task.Segments))
			}
			if _, plain := run(t, platform(), false); !bytes.Equal(staged, plain) {
				t.Fatalf("staged work-free run differs from the plain one:\nstaged: %s\nplain:  %s", staged, plain)
			}
		})
	}
}
