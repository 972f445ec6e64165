package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/dash"
	"repro/internal/fault"
	"repro/internal/jade"
	"repro/internal/metrics"
	"repro/internal/obsv"
)

// streamHash is a sink that folds every event it records into a
// SHA-256, so a test can pin a whole event stream by one digest.
type streamHash struct{ h hash.Hash }

func (s *streamHash) Record(e obsv.Event) { fmt.Fprintf(s.h, "%+v\n", e) }

// dashWakeRun runs one observed DASH cell with a hashing sink beside
// the observer, and returns the event-stream digest and the
// jade-metrics/v1 bytes. program, when non-nil, runs directly on the
// machine in place of the spec's app.
func dashWakeRun(t *testing.T, s RunSpec, fromHead bool, program func(*jade.Runtime)) (string, []byte) {
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
	stream := &streamHash{h: sha256.New()}
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
	return hex.EncodeToString(stream.h.Sum(nil)), runBytes(t, r)
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

// TestDashWakeDigests pins the event stream and the jade-metrics/v1
// bytes of DASH runs that wake idle processors in bursts: the
// zero-delay storm of a work-free NoLocality run, the StealDelaySec
// bursts of the Locality level, placed tasks, the head-stealing
// ablation, a fault-injected run, and timed staged programs at both
// wake delays. How the machine schedules its wake-ups must not move
// any of these bytes.
func TestDashWakeDigests(t *testing.T) {
	want := map[string][2]string{
		"workfree/water/none/32": {
			"6f22338b231d6eb207e6948538e22183052d8b6325f2a305940b82c9d820e5f9",
			"b4700518800ff634f91d4fbca41b712af7a851c4c89f52e3adb5063531f2618d"},
		"water/locality/32": {
			"6fa89e3e0156b5cb89fcbbd3f960b885f54279ffcec20e03c833ff2b900ea001",
			"c2dfb886fadafaa9abd09542c73bc55f7dea5353e47e2c1623e180ecf6ed48fa"},
		"ocean/placement/8": {
			"e2e9d93696e0b4fe4ac13fded2cbfdc0c072b04b916236d34de317ca7a0fd8fe",
			"b3216ff19e482a1d5dde441b79dd05aa69a52f7d0f8ba5f4eb917b00c1fe20df"},
		"cholesky/steal-head/16": {
			"a7b92c6e71c7c66249d97877640bcd5c9e96f28bc49c337e63e8fd54605d5174",
			"757013dc4d0ecb63f9d93312f9283274f80bcf97712532402a797781b018c70d"},
		"ocean/locality/8/fault": {
			"4c1d7f40bbf99482b348e32189d86a84b8363b07aa15f638230e14e08397d2bc",
			"83240ae720a9ba527df6515df722d4d935d8aee2d971054b633da546dba5153e"},
		"staged/none/4": {
			"b90b7c4c4c1574a497fc9ecd96c17d731b1bd55af6e658e7c0a01461fea4b7c6",
			"a7d496fd58f36a71c82f373df1006a83761ad67ab84680325742c9ff2a3c699a"},
		"staged/locality/4": {
			"123f892a01255fc024c88bac5126e3b0598b37cd0ca11594fd613d8a4cb35118",
			"c283afd3bce907b10a4c7bc823cbba4b3b44c77075d85da627fd40422ef52b66"},
	}
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
	for _, c := range cells {
		stream, report := dashWakeRun(t, c.spec, c.fromHead, c.program)
		got := [2]string{stream, sha256Hex(report)}
		if got != want[c.name] {
			t.Errorf("%q: {%q, %q}, want %v", c.name, got[0], got[1], want[c.name])
		}
	}
}
