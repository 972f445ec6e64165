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
	"repro/internal/jsonw"
	"repro/internal/metrics"
	"repro/internal/obsv"
)

// streamHash is a sink that folds the events it records into two
// SHA-256s, so a test can pin a whole event stream by two digests: the
// scheduling stream (every kind but Fetch) and the fetch stream. Each
// event is hashed as a canonical JSON object of its named fields,
// leaving out a field at its zero value, so a field added to
// obsv.Event moves no digest until this encoder writes it and an event
// sets it.
type streamHash struct{ sched, fetch hash.Hash }

func newStreamHash() *streamHash { return &streamHash{sched: sha256.New(), fetch: sha256.New()} }

func (s *streamHash) Record(e obsv.Event) {
	h := s.sched
	if e.Kind == obsv.Fetch {
		h = s.fetch
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
	if err := a.Finish(h); err != nil {
		panic(err)
	}
}

// digests returns the scheduling and fetch stream digests.
func (s *streamHash) digests() (sched, fetch string) {
	return hex.EncodeToString(s.sched.Sum(nil)), hex.EncodeToString(s.fetch.Sum(nil))
}

// dashWakeRun runs one observed DASH cell with a hashing sink beside
// the observer, and returns its four digests: the scheduling and fetch
// streams, the jade-metrics/v1 report without its observability block,
// and the block. program, when non-nil, runs directly on the machine in
// place of the spec's app.
func dashWakeRun(t *testing.T, s RunSpec, fromHead bool, program func(*jade.Runtime)) [4]string {
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
	stream := newStreamHash()
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
	sched, fetch := stream.digests()
	block := takeObsv(t, []*metrics.Run{r}, runObsv)
	return [4]string{sched, fetch, sha256Hex(runBytes(t, r)), sha256Hex(block)}
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

// TestDashWakeDigests pins the scheduling and fetch event streams, the
// jade-metrics/v1 report and its observability block of DASH runs
// that wake idle processors in bursts: the zero-delay storm of a
// work-free NoLocality run, the StealDelaySec bursts of the Locality
// level, placed tasks, the head-stealing ablation, a fault-injected
// run, and timed staged programs at both wake delays. How the machine
// schedules its wake-ups must not move any of these bytes.
func TestDashWakeDigests(t *testing.T) {
	want := map[string][4]string{
		"workfree/water/none/32": {
			"925a7e77212a5e807418f2b0236f9165a752520667226690a6dae27d0b148265",
			"4c674ca0533bf0e49b04b7d5b6d71f79a5364618aa271e2d29d4c2ef7b026ce8",
			"d49d89765db3019eabed2db6d8270df97508344fc02d9ee583ac5db7f34e2245",
			"55de73543e40845121112fc3ec897c9e72acb29764d987feb4d95f758c2d489e"},
		"water/locality/32": {
			"9044fcd3a73c381b365ea074b1ae3daba88cf2074d1f80111a78a949d1f88aa8",
			"aa9b40f2fcdc9df9e25d59382490fa3b0b91af8568d7e5ed692198c49aaa0e32",
			"001e2256c0341b192e76733a32749f83d6bfd5ffc4e2d4c6fb8153d0ec7cb0ec",
			"ee1d3bac2000130cc63ff46a39ba92830acf38dd234d39f2e653423fd22ab0c4"},
		"ocean/placement/8": {
			"c326210bcb91cbcb1aea37890b9dcbeec6a98c47b7f43325550964b66f468a5c",
			"a2d162fbcbbe05eff3112f4df769f8c36a02c1aa45db0f66a1a4f3d8dcac9bd2",
			"9ffd4b8dc074f3ced9717db8d2c01c9766d9f22fcc8d3f675ba6c3230a2851ac",
			"12fce19cdc0c5dd99e10f7b9581bbfbadf427ec4daf884fe9260f5b1fedcc67d"},
		"cholesky/steal-head/16": {
			"a10705bc47395c6f7d5699a11bd8b3c95f2c19cfe4098eef827a30aff226aff8",
			"51450f058aef5480d84739bd56fb6eb096eed81a7c2c47c23d6f20600edd69f6",
			"6a5fd42761fdf9f8c57c5329ee4bb4a7bed421f4aa2c1c61f913c80214feed91",
			"fab755200412e39959f6bc8bcc2fe9bd24e56bac1d3cc52d2b5dd2f18ce0ad29"},
		"ocean/locality/8/fault": {
			"34cbee75a29a4fc1a28bfd42201d4fe420d1ec2fc3262d8ef826c0a22de89e0b",
			"fd898fae1c3a2b55d89305c0339f7231e3eaabe2c3e3a5d97d5d0e6163056885",
			"cff4d607bb878cdf59fedb66cbd63200b1e180ae01e39ca63c5451d71e9e2ec1",
			"e706c77c25033f015b41b2df725a2c904a69a9b77b97e8907f4b882c4667dbed"},
		"staged/none/4": {
			"2b7fe5627b9453ceaa0085819c2d4075078d440b2a9d2e22f33d2103019cbd00",
			"7bcd9dbd68c185e8b105824b95aa7a3612641ea5e5a8dd082eadaed56abbda6b",
			"eadaccd1e9ad0d221a8d5ab81ce9cb47fc0aa88c07de24af5e42d737a966a219",
			"255c1b9c9c7cd9383eb74ef09b3ca1510aa6b1ae4aaa18a77a6ad2449e035a86"},
		"staged/locality/4": {
			"ea321a42abf9762b68bbfaf1a7882b0a535366ca7c2391c975a800b8110bf5f1",
			"c4278311e0b866d3a2f64f6a8bc3e50a6ff24d19642e5011131a681c7831210a",
			"829f8dcc602be8d5e76d3dda7deeacf721b62adbffd39ddd40a1962650651483",
			"10b566b210a4811aa6229463f7396ec075df5d5777fa1a0846fe97103b46ffc0"},
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
		got := dashWakeRun(t, c.spec, c.fromHead, c.program)
		if got != want[c.name] {
			t.Errorf("%q: {%q, %q, %q, %q}, want %v", c.name, got[0], got[1], got[2], got[3], want[c.name])
		}
	}
}
