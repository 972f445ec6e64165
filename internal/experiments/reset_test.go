package experiments

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/jade"
	"repro/internal/metrics"
)

// resetCells covers what a reused machine must forget between cells:
// all four machines, every level, processor counts that go up and down,
// timed and work-free graphs, fused, faulted (seed 7) and observed
// cells, in a seeded shuffle so each kind's machine sees them in a
// mixed order.
func resetCells() []RunSpec {
	procs := []int{8, 1, 16, 2, 32, 3, 4}
	faults := map[string]*fault.Spec{
		"dash": {Seed: 7, VictimClusters: 1, InvalidatePct: 0.2},
		"ipsc": {Seed: 7, DropPct: 0.05},
		"pgas": {Seed: 7, DegradedLinkPct: 0.4, Stragglers: 1},
	}
	var cells []RunSpec
	k := 0
	for _, machine := range []string{"dash", "ipsc", "pgas", "cluster"} {
		for _, app := range []string{"ocean", "cholesky", "spmv"} {
			for _, level := range levelsFor(app, machine) {
				for _, workFree := range []bool{true, false} {
					s := RunSpec{App: app, Machine: machine, Level: level, Procs: procs[k%len(procs)],
						WorkFree: workFree, Observe: k%3 == 0}
					k++
					switch {
					case k%4 == 0 && faults[machine] != nil:
						s.Fault = faults[machine]
					case k%5 == 0 && workFree:
						s.Fusion = true
					}
					cells = append(cells, s)
				}
			}
		}
	}
	cells = append(cells,
		RunSpec{App: "cholesky", Machine: "ipsc", Procs: 8, WorkFree: true, Fusion: true, Coalescing: true},
		RunSpec{App: "water", Machine: "ipsc", Procs: 4, Coalescing: true, Observe: true},
		RunSpec{App: "string", Machine: "dash", Procs: 32, Observe: true, Fault: faults["dash"]},
	)
	rand.New(rand.NewSource(1)).Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	for i := range cells {
		if err := cells[i].Canonicalize(); err != nil {
			panic(err)
		}
	}
	return cells
}

// TestResetMatchesFresh replays a sequence of cells through one reused
// machine per kind and checks every report and observer snapshot
// against a replay onto a new machine. The first run must stay as it
// was while its machine runs the later cells: a run shares no storage
// with the machine it came from.
func TestResetMatchesFresh(t *testing.T) {
	cells := resetCells()
	var covered struct{ fused, faulted, observed, timed bool }
	free := &machines{}
	var first *metrics.Run
	var firstBytes []byte
	for i, s := range cells {
		covered.fused = covered.fused || s.Fusion
		covered.faulted = covered.faulted || s.Fault != nil
		covered.observed = covered.observed || s.Observe
		covered.timed = covered.timed || !s.WorkFree
		reused := s.execute(Small, free, nil)
		fresh := s.execute(Small, nil, nil)
		if !bytes.Equal(runBytes(t, reused), runBytes(t, fresh)) {
			t.Fatalf("cell %d %+v: report on a reset machine differs from a new machine", i, s)
		}
		a, _ := json.Marshal(reused.Obsv)
		b, _ := json.Marshal(fresh.Obsv)
		if !bytes.Equal(a, b) {
			t.Fatalf("cell %d %+v: observer snapshot on a reset machine differs from a new machine", i, s)
		}
		if first == nil {
			first, firstBytes = reused, runBytes(t, reused)
		} else if !bytes.Equal(runBytes(t, first), firstBytes) {
			t.Fatalf("cell %d %+v: the first run changed when its machine ran a later cell", i, s)
		}
	}
	if !covered.fused || !covered.faulted || !covered.observed || !covered.timed {
		t.Fatalf("cells miss a kind: %+v", covered)
	}
	if free.dash == nil || free.ipsc == nil || free.pgas == nil || free.cluster == nil {
		t.Fatal("the free list did not hold a machine of every kind")
	}
}

// TestResetMatchesFreshDirect runs front-ends directly (no replay, so
// no capacity hint) on reset machines: the per-object tables then grow
// by appending into storage that still holds the previous run's data.
// Each spec runs twice in a row, so stale entries carry the very object
// IDs and versions the second run reads.
func TestResetMatchesFreshDirect(t *testing.T) {
	free := &machines{}
	for _, s := range []RunSpec{
		{App: "ocean", Machine: "dash", Procs: 16, Level: LevelLocality},
		{App: "cholesky", Machine: "dash", Procs: 4, Level: LevelPlacement},
		{App: "ocean", Machine: "ipsc", Procs: 16},
		{App: "water", Machine: "ipsc", Procs: 2, Observe: true},
		{App: "spmv", Machine: "ipsc", Procs: 8},
		{App: "spmv", Machine: "pgas", Procs: 8},
		{App: "water", Machine: "pgas", Procs: 3},
		{App: "ocean", Machine: "cluster", Procs: 8},
		{App: "cholesky", Machine: "cluster", Procs: 4},
	} {
		if err := s.Canonicalize(); err != nil {
			t.Fatal(err)
		}
		want := runBytes(t, executeDirect(t, s, Small))
		for rep := 0; rep < 2; rep++ {
			a := appKeys[s.App]
			p, obs := s.newPlatform(free, nil)
			rt := jade.New(p, jade.Config{WorkFree: s.WorkFree})
			a.run(rt, Small, s.Level == LevelPlacement && a.hasPlacement)
			r := rt.Finish()
			r.Obsv = obs.Snapshot(0)
			got := runBytes(t, r)
			free.put(p)
			if !bytes.Equal(got, want) {
				t.Errorf("%+v run %d: direct run on a reset machine differs from a new machine", s, rep)
			}
		}
	}
}
