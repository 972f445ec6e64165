package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dash"
	"repro/internal/fault"
	"repro/internal/golden"
	"repro/internal/jade"
	"repro/internal/jsonw"
	"repro/internal/metrics"
	"repro/internal/obsv"
)

// streamRecorder is a sink that writes the events it records as two
// streams: the scheduling stream (every kind but Fetch) and the fetch
// stream. Each event is a canonical JSON object of its named fields,
// leaving out a field at its zero value, so a field added to
// obsv.Event moves no pinned stream until this encoder writes it and
// an event sets it.
type streamRecorder struct{ sched, fetch bytes.Buffer }

func (s *streamRecorder) Record(e obsv.Event) {
	w := &s.sched
	if e.Kind == obsv.Fetch {
		w = &s.fetch
	}
	a := jsonw.Start(nil)
	a.Open('{')
	a.Key("kind").String(e.Kind.String())
	flag := 0
	if e.Flag {
		flag = 1
	}
	ints := [...]struct {
		key string
		v   int
	}{{"flag", flag}, {"class", int(e.Class)}, {"proc", e.Proc}, {"task", e.Task}, {"obj", e.Obj},
		{"bytes", e.Bytes}, {"n", e.N}}
	for _, f := range ints {
		if f.v != 0 {
			a.Key(f.key).Int(int64(f.v))
		}
	}
	if e.Name != "" {
		a.Key("name").String(e.Name)
	}
	if e.At != 0 {
		a.Key("at").Float(e.At)
	}
	if e.End != 0 {
		a.Key("end").Float(e.End)
	}
	a.Close('}')
	if err := a.Finish(w); err != nil {
		panic(err)
	}
}

// dashWakeRun runs one observed DASH cell with a stream recorder beside
// the observer, and returns its scheduling and fetch event streams and
// its jade-metrics/v1 report. program, when non-nil, runs directly on
// the machine in place of the spec's app.
func dashWakeRun(t *testing.T, s RunSpec, fromHead bool, program func(*jade.Runtime)) [3][]byte {
	t.Helper()
	s.Observe = true
	if fromHead {
		s.variant = stealHead
	}
	if err := s.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	p, obs := s.newPlatform(nil, nil)
	m := p.(*dash.Machine)
	stream := new(streamRecorder)
	m.Sink = obsv.Tee{obs, stream}
	cfg := jade.Config{WorkFree: s.WorkFree}
	var r *metrics.Run
	if program != nil {
		rt := jade.New(m, cfg)
		program(rt)
		r = rt.Finish()
	} else {
		r = replay(s.taskGraph(Small).g, new(jade.Runtime), m, cfg)
	}
	r.Obsv = obs.Snapshot(0)
	return [3][]byte{stream.sched.Bytes(), stream.fetch.Bytes(), runBytes(t, r)}
}

// stagedWake is a timed program whose tasks are created while the main
// program keeps processor 0 busy: every wake burst finds processor 0's
// CPU free only after the burst time, so it keeps a dispatch event of
// its own, and the staged segments release objects mid-task.
func stagedWake(rt *jade.Runtime) {
	const n = 6
	blocks := make([]*jade.Object, n)
	for i := range blocks {
		blocks[i] = rt.Alloc(fmt.Sprintf("block%d", i), 1024*(i+1), nil, jade.OnProcessor(i%rt.Processors()))
	}
	for round := 0; round < 3; round++ {
		rt.Serial(2e-3, func() {}, func(s *jade.Spec) { s.Rd(blocks[0]) })
		for i, b := range blocks {
			b, next := b, blocks[(i+1)%n]
			rt.WithOnlyStaged(func(s *jade.Spec) { s.Rd(next); s.Wr(b) }, []jade.Segment{
				{Work: 4e-4, Release: []*jade.Object{next}},
				{Work: 9e-4},
			})
			rt.WithOnly(func(s *jade.Spec) { s.Rd(b) }, 2e-4, func() {})
		}
		rt.Wait()
	}
}

// dashWakeRows pins the scheduling and fetch event streams and the
// jade-metrics/v1 report of DASH runs that wake idle processors in
// bursts: the zero-delay storm of a work-free NoLocality run, the
// StealDelaySec bursts of the Locality level, placed tasks, the
// head-stealing ablation, a fault-injected run, and timed staged
// programs at both wake delays. How the machine schedules its wake-ups
// must not move any of these bytes.
func dashWakeRows() []golden.Row {
	dashFault := &fault.Spec{Seed: 7, VictimClusters: 1, InvalidatePct: 0.2}
	cells := []struct {
		name     string
		spec     RunSpec
		fromHead bool
		program  func(*jade.Runtime)
	}{
		{"workfree/water/none/32", RunSpec{App: "water", Machine: "dash", Procs: 32, Level: LevelNone, WorkFree: true}, false, nil},
		{"water/locality/32", RunSpec{App: "water", Machine: "dash", Procs: 32, Level: LevelLocality}, false, nil},
		{"ocean/placement/8", RunSpec{App: "ocean", Machine: "dash", Procs: 8, Level: LevelPlacement}, false, nil},
		{"cholesky/steal-head/16", RunSpec{App: "cholesky", Machine: "dash", Procs: 16, Level: LevelLocality}, true, nil},
		{"ocean/locality/8/fault", RunSpec{App: "ocean", Machine: "dash", Procs: 8, Level: LevelLocality, Fault: dashFault}, false, nil},
		{"staged/none/4", RunSpec{App: "water", Machine: "dash", Procs: 4, Level: LevelNone}, false, stagedWake},
		{"staged/locality/4", RunSpec{App: "water", Machine: "dash", Procs: 4, Level: LevelLocality}, false, stagedWake},
	}
	var rows []golden.Row
	for _, c := range cells {
		run := golden.Once(func(t *testing.T) [3][]byte { return dashWakeRun(t, c.spec, c.fromHead, c.program) })
		for i, ext := range []string{".sched.events", ".fetch.events", ".json"} {
			rows = append(rows, golden.Row{Name: "dashwake/" + strings.ReplaceAll(c.name, "/", "-") + ext,
				Produce: func(t *testing.T) []byte { return run(t)[i] }})
		}
	}
	return rows
}
