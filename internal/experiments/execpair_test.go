package experiments

import (
	"testing"

	"repro/internal/apps/ocean"
	"repro/internal/check"
	"repro/internal/jade"
	"repro/internal/obsv"
	"repro/internal/trace"
)

// Every machine reports a task's execution one way: one ExecStart at
// its dispatch and one ExecEnd at its end, for a plain and a staged
// program, timed and work-free. The observed run's lifecycle order and
// schedule then check, and its observer agrees with its counters.
func TestExecPairOnEveryMachine(t *testing.T) {
	programs := []struct {
		name string
		run  func(*jade.Runtime)
	}{
		{"plain", func(rt *jade.Runtime) {
			cfg := ocean.Small()
			cfg.N, cfg.Iterations = 32, 2
			ocean.Run(rt, cfg)
		}},
		{"staged", stagedWake},
	}
	for _, machine := range []string{"dash", "ipsc", "pgas", "cluster"} {
		for _, prog := range programs {
			for _, workFree := range []bool{false, true} {
				name := machine + "/" + prog.name
				if workFree {
					name += "/work-free"
				}
				s := RunSpec{Machine: machine, Procs: 4, Level: LevelLocality, Observe: true}
				tr := trace.New()
				p, obs := s.newPlatform(nil, tr)
				rt := jade.New(p, jade.Config{WorkFree: workFree})
				prog.run(rt)
				r := rt.Finish()
				pairs := map[int][2]int{}
				for _, e := range tr.Events() {
					n := pairs[e.Task]
					switch e.Kind {
					case obsv.ExecStart:
						n[0]++
					case obsv.ExecEnd:
						n[1]++
					default:
						continue
					}
					pairs[e.Task] = n
				}
				missing := 0
				for _, task := range rt.Tasks() {
					if pairs[int(task.ID)] != [2]int{1, 1} {
						missing++
					}
				}
				if missing > 0 || len(pairs) != len(rt.Tasks()) {
					t.Errorf("%s: %d of %d tasks lack one ExecStart/ExecEnd pair (%d tasks reported)",
						name, missing, len(rt.Tasks()), len(pairs))
				}
				if err := check.EventOrdering(tr); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				if err := check.Validate(tr, rt.Tasks()); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				if err := Agree(machine, r, obs); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		}
	}
}
