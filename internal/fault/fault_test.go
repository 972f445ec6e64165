package fault

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

func TestMixDeterministicAndKeyOrderSensitive(t *testing.T) {
	if mix(1, 2, 3) != mix(1, 2, 3) {
		t.Fatal("mix is not deterministic")
	}
	if mix(1, 2, 3) == mix(1, 3, 2) {
		t.Fatal("mix ignores key order")
	}
	if mix(1, 2) == mix(2, 2) {
		t.Fatal("mix ignores the seed")
	}
}

func TestUnitRangeAndDistribution(t *testing.T) {
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		u := unit(42, uint64(i))
		if u < 0 || u >= 1 {
			t.Fatalf("unit out of [0,1): %g", u)
		}
		sum += u
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("unit mean %g far from 0.5", mean)
	}
}

func TestChanceRate(t *testing.T) {
	const n = 20000
	hits := 0
	for i := 0; i < n; i++ {
		if chance(0.1, 7, kDrop, uint64(i)) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.1) > 0.015 {
		t.Fatalf("chance(0.1) fired at rate %g", rate)
	}
	if chance(0, 7, 1) || !chance(1, 7, 1) {
		t.Fatal("chance endpoints wrong")
	}
}

func TestSpecCanonicalizeDefaults(t *testing.T) {
	s := Spec{Seed: 1, DegradedLinkPct: 0.25, Stragglers: 2, VictimClusters: 1}
	if err := s.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if s.Schema != Schema {
		t.Fatalf("schema = %q", s.Schema)
	}
	if s.LinkSlowdown != 4 || s.StraggleFactor != 3 || s.RemoteLatencyFactor != 4 {
		t.Fatalf("defaults not filled: %+v", s)
	}
	// Canonical form is stable: canonicalizing again changes nothing.
	before, _ := json.Marshal(s)
	if err := s.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	after, _ := json.Marshal(s)
	if string(before) != string(after) {
		t.Fatalf("canonicalize is not idempotent: %s vs %s", before, after)
	}
}

func TestSpecRejectsInvalid(t *testing.T) {
	for name, s := range map[string]Spec{
		"drop 1":         {DropPct: 1},
		"drop negative":  {DropPct: -0.1},
		"dup 1":          {DupPct: 1},
		"bad schema":     {Schema: "jade-fault/v2"},
		"stragglers < 0": {Stragglers: -1},
		"victims < 0":    {VictimClusters: -2},
		"slowdown < 1":   {DegradedLinkPct: 0.5, LinkSlowdown: 0.5},
		"factor huge":    {Stragglers: 1, StraggleFactor: 5000},
	} {
		s := s
		if err := s.Canonicalize(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSpecActive(t *testing.T) {
	if (&Spec{Seed: 9}).Active() {
		t.Fatal("seed-only spec reported active")
	}
	if (&Spec{Panic: true}).Active() {
		t.Fatal("panic-only spec reported active (handled above the models)")
	}
	if !(&Spec{DropPct: 0.1}).Active() {
		t.Fatal("drop spec reported inactive")
	}
	var nilSpec *Spec
	if nilSpec.Active() {
		t.Fatal("nil spec reported active")
	}
}

func TestNewInjectorInactiveSpecIsNil(t *testing.T) {
	if inj := NewInjector(Spec{Seed: 3}, 8); inj != nil {
		t.Fatal("inactive spec built a live injector")
	}
	if inj := new(Injector).Reset(Spec{Seed: 3}, 8); inj != nil {
		t.Fatal("inactive spec reset to a live injector")
	}
}

// A reset injector is the one NewInjector builds: the counters an
// earlier, larger run consumed and its straggler set are gone.
func TestInjectorResetMatchesNew(t *testing.T) {
	in := NewInjector(Spec{Seed: 1, DropPct: 0.3, Stragglers: 5, StraggleFactor: 2, InvalidatePct: 0.2}, 16)
	for i := 0; i < 50; i++ {
		in.NextMsg(i % 16)
		in.Invalidate(i % 16)
	}
	spec := Spec{Seed: 9, DropPct: 0.1, Stragglers: 1, StraggleFactor: 3}
	if got, want := in.Reset(spec, 4), NewInjector(spec, 4); !reflect.DeepEqual(got, want) {
		t.Fatalf("reset injector %+v, want %+v", got, want)
	}
}

func TestNilInjectorIsHealthy(t *testing.T) {
	var in *Injector
	if in.Enabled() || in.Lossy() || in.Drop(0, 0, 0) || in.Duplicate(0, 0) || in.Invalidate(3) || in.Straggler(0) {
		t.Fatal("nil injector injected something")
	}
	if in.LinkFactor(0, 1) != 1 || in.CPUFactor(0) != 1 || in.RemoteFactor(0, 4) != 1 {
		t.Fatal("nil injector degraded something")
	}
	if in.NextMsg(5) != 0 || in.Jitter(0, 0, 0) != 0 {
		t.Fatal("nil injector produced nonzero draws")
	}
}

func TestInjectorDeterministicReplay(t *testing.T) {
	spec := Spec{Seed: 11, DropPct: 0.3, DupPct: 0.2, DegradedLinkPct: 0.25,
		Stragglers: 2, VictimClusters: 1, InvalidatePct: 0.1}
	if err := spec.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	run := func() []bool {
		in := NewInjector(spec, 8)
		var out []bool
		for p := 0; p < 8; p++ {
			for i := 0; i < 50; i++ {
				msg := in.NextMsg(p)
				out = append(out, in.Drop(p, msg, 0), in.Drop(p, msg, 1),
					in.Duplicate(p, msg), in.Invalidate(p))
			}
			out = append(out, in.Straggler(p), in.LinkFactor(p, (p+1)%8) != 1,
				in.RemoteFactor(p/4, 2) != 1)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at draw %d", i)
		}
	}
}

func TestPickSelectsExactlyK(t *testing.T) {
	for _, tc := range []struct{ k, n int }{{0, 8}, {2, 8}, {8, 8}, {12, 8}} {
		sel := pick(make([]bool, tc.n), 99, kStraggler, tc.k)
		got := 0
		for _, s := range sel {
			if s {
				got++
			}
		}
		want := tc.k
		if want > tc.n {
			want = tc.n
		}
		if got != want {
			t.Fatalf("pick(%d of %d) selected %d", tc.k, tc.n, got)
		}
	}
}

func TestStragglerSetSeedDependent(t *testing.T) {
	mk := func(seed uint64) []bool {
		in := NewInjector(Spec{Seed: seed, Stragglers: 2, StraggleFactor: 3}, 16)
		out := make([]bool, 16)
		for p := range out {
			out[p] = in.Straggler(p)
		}
		return out
	}
	a, b := mk(1), mk(1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("straggler set not reproducible")
		}
	}
	diff := false
	for seed := uint64(2); seed < 10 && !diff; seed++ {
		c := mk(seed)
		for i := range a {
			if a[i] != c[i] {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Fatal("straggler set identical across 9 seeds")
	}
}

func TestVictimClusterCount(t *testing.T) {
	in := NewInjector(Spec{Seed: 5, VictimClusters: 1, RemoteLatencyFactor: 4}, 8)
	const clusters = 4
	victims := 0
	for c := 0; c < clusters; c++ {
		if in.RemoteFactor(c, clusters) != 1 {
			victims++
		}
	}
	if victims != 1 {
		t.Fatalf("%d victim clusters, want 1", victims)
	}
}

// The victim set RemoteFactor builds once per Reset and cluster count
// marks exactly the clusters a per-call ranking picks: the k smallest
// keyed hashes, ties to the lower index.
func TestRemoteFactorMatchesRanking(t *testing.T) {
	ranked := func(seed uint64, k, cluster, n int) bool {
		rank, hc := 0, mix(seed, kVictim, uint64(cluster))
		for j := 0; j < n; j++ {
			if hj := mix(seed, kVictim, uint64(j)); hj < hc || (hj == hc && j < cluster) {
				rank++
			}
		}
		return rank < k
	}
	in := new(Injector)
	for seed := uint64(1); seed <= 6; seed++ {
		for _, k := range []int{1, 2, 4} {
			spec := Spec{Seed: seed, VictimClusters: k}
			if err := spec.Canonicalize(); err != nil {
				t.Fatal(err)
			}
			in.Reset(spec, 8)
			// Sizes in both directions, so the set is rebuilt on each change.
			for _, n := range []int{3, 8, 1, 32, 8, 16} {
				for c := 0; c < n; c++ {
					want := 1.0
					if ranked(seed, k, c, n) {
						want = spec.RemoteLatencyFactor
					}
					if got := in.RemoteFactor(c, n); got != want {
						t.Fatalf("seed %d, %d of %d clusters: cluster %d factor %g, want %g", seed, k, n, c, got, want)
					}
				}
			}
		}
	}
}

func TestInvalidateStormsAreBursty(t *testing.T) {
	in := NewInjector(Spec{Seed: 21, InvalidatePct: 0.2}, 1)
	// Within one 32-access window every draw agrees (that is what
	// makes it a storm rather than isolated misses).
	for w := 0; w < 64; w++ {
		first := in.Invalidate(0)
		for i := 1; i < 1<<invWindowBits; i++ {
			if in.Invalidate(0) != first {
				t.Fatalf("window %d is not uniform", w)
			}
		}
	}
}
