package experiments

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/fault"
)

// flips returns the edits that change a field like v: one per way its
// value can differ. A field of a kind it does not know fails the test,
// so a new RunSpec or fault.Spec field must be taught here, and so
// reach planKey.
func flips(t *testing.T, name string, v reflect.Value) []func(reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		return []func(reflect.Value){func(f reflect.Value) { f.SetString(f.String() + "x") }}
	case reflect.Bool:
		return []func(reflect.Value){func(f reflect.Value) { f.SetBool(!f.Bool()) }}
	case reflect.Int:
		return []func(reflect.Value){func(f reflect.Value) { f.SetInt(f.Int() + 1) }}
	case reflect.Uint64:
		return []func(reflect.Value){func(f reflect.Value) { f.SetUint(f.Uint() + 1) }}
	case reflect.Float64:
		return []func(reflect.Value){func(f reflect.Value) { f.SetFloat(f.Float() + 0.5) }}
	case reflect.Pointer:
		if !v.IsNil() {
			return []func(reflect.Value){func(f reflect.Value) { f.SetZero() }}
		}
		set := func(f reflect.Value) { f.Set(reflect.New(f.Type().Elem())) }
		out := []func(reflect.Value){set}
		if v.Type().Elem().Kind() == reflect.Bool {
			out = append(out, func(f reflect.Value) { set(f); f.Elem().SetBool(true) })
		}
		return out
	}
	t.Fatalf("%s: no flip for a field of kind %s", name, v.Kind())
	return nil
}

// TestPlanKeyCoversEverySpecField flips every RunSpec field and every
// fault.Spec field, one at a time, and checks that each flip gets a
// dedup key of its own, while a copy of the flipped spec made through
// JSON (same content, fresh pointers) shares its key. The unexported
// variant never reaches JSON, so every variant must key apart from the
// base spec, whose JSON it shares. A field planKey forgot would merge
// two cells that must run apart.
func TestPlanKeyCoversEverySpecField(t *testing.T) {
	base := func() RunSpec {
		return RunSpec{App: "water", Machine: "ipsc", Procs: 8, Level: LevelLocality,
			Fault: &fault.Spec{Seed: 7, DropPct: 0.05}}
	}
	faults, orig := map[fault.Spec]int32{}, base()
	seen := map[planKey]string{orig.planKey(faults): "the base spec"}
	check := func(name string, s RunSpec) {
		k := s.planKey(faults)
		if prev, dup := seen[k]; dup {
			t.Errorf("flipping %s gives the key of %s", name, prev)
		}
		seen[k] = name
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var c RunSpec
		if err := json.Unmarshal(b, &c); err != nil {
			t.Fatal(err)
		}
		if c.planKey(faults) != k {
			t.Errorf("flipping %s: a JSON copy of the spec gets another key", name)
		}
	}
	fields := func(typ reflect.Type, at func(s *RunSpec) reflect.Value, prefix string) {
		for i := 0; i < typ.NumField(); i++ {
			name := prefix + typ.Field(i).Name
			if !typ.Field(i).IsExported() {
				if name != "variant" {
					t.Fatalf("%s: an unexported field the test does not know", name)
				}
				continue
			}
			probe := base()
			for _, flip := range flips(t, name, at(&probe).Field(i)) {
				s := base()
				flip(at(&s).Field(i))
				check(name, s)
			}
		}
	}
	fields(reflect.TypeOf(RunSpec{}), func(s *RunSpec) reflect.Value { return reflect.ValueOf(s).Elem() }, "")
	fields(reflect.TypeOf(fault.Spec{}), func(s *RunSpec) reflect.Value { return reflect.ValueOf(s.Fault).Elem() }, "Fault.")
	for v := variantID(1); int(v) < len(variants); v++ {
		s := base()
		s.variant = v
		k := s.planKey(faults)
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %s gives the key of %s", variants[v].name, prev)
		}
		seen[k] = "variant " + variants[v].name
	}
}

// TestPlanKeyMatchesCanonicalJSON checks the other direction on specs
// that are equal only after Canonicalize — aliases, defaults, inert
// fault blocks, equal values behind distinct pointers — and on the
// mixed cells of resetCells: two canonical specs share a key exactly
// when they marshal to the same JSON.
func TestPlanKeyMatchesCanonicalJSON(t *testing.T) {
	yes, yes2, no := true, true, false
	pairs := [][2]RunSpec{
		{{App: " Tomo ", Machine: "IPSC"}, {App: "string", Machine: "ipsc", Procs: 8, Level: LevelLocality}},
		{{App: "ocean", Machine: "dash"}, {App: "ocean", Machine: "dash", Procs: 8, Level: LevelPlacement}},
		{{App: "water", Machine: "cluster", Level: LevelNone}, {App: "water", Machine: "cluster"}},
		{{App: "water", Machine: "ipsc", Fault: &fault.Spec{Seed: 3}}, {App: "water", Machine: "ipsc"}},
		{{App: "water", Machine: "ipsc", Fault: &fault.Spec{Seed: 7, DropPct: 0.05}},
			{App: "water", Machine: "ipsc", Fault: &fault.Spec{Schema: fault.Schema, Seed: 7, DropPct: 0.05}}},
		{{App: "water", Machine: "pgas", Fault: &fault.Spec{Seed: 7, DegradedLinkPct: 0.4}},
			{App: "water", Machine: "pgas", Fault: &fault.Spec{Seed: 7, DegradedLinkPct: 0.4, LinkSlowdown: 4}}},
		// A fault the machine does not model is canonicalized away.
		{{App: "ocean", Machine: "dash", Fault: &fault.Spec{Seed: 7, DropPct: 0.3, Stragglers: 2}},
			{App: "ocean", Machine: "dash"}},
		{{App: "water", Machine: "pgas", Fault: &fault.Spec{Seed: 7, DropPct: 0.3, DegradedLinkPct: 0.4}},
			{App: "water", Machine: "pgas", Fault: &fault.Spec{Seed: 7, DegradedLinkPct: 0.4}}},
		{{App: "water", Machine: "ipsc", Fault: &fault.Spec{Seed: 7, DropPct: 0.05, VictimClusters: 1, InvalidatePct: 0.2}},
			{App: "water", Machine: "ipsc", Fault: &fault.Spec{Seed: 7, DropPct: 0.05}}},
		// So is a factor whose own fault is absent.
		{{App: "water", Machine: "ipsc", Fault: &fault.Spec{Seed: 7, DropPct: 0.05, LinkSlowdown: 8, StraggleFactor: 2}},
			{App: "water", Machine: "ipsc", Fault: &fault.Spec{Seed: 7, DropPct: 0.05}}},
		{{App: "water", Machine: "ipsc", ConcurrentFetch: &yes}, {App: "water", Machine: "ipsc", ConcurrentFetch: &yes2}},
		{{App: "spmv", Machine: "pgas", Aggregation: &no}, {App: "spmv", Machine: "pgas", Aggregation: new(bool)}},
	}
	var specs []RunSpec
	for _, p := range pairs {
		for _, s := range p {
			if err := s.Canonicalize(); err != nil {
				t.Fatal(err)
			}
			specs = append(specs, s)
		}
	}
	specs = append(specs, resetCells()...)
	faults := map[fault.Spec]int32{}
	for i, a := range specs {
		for j, b := range specs[:i+1] {
			ja, _ := json.Marshal(a)
			jb, _ := json.Marshal(b)
			if sameJSON, sameKey := string(ja) == string(jb), a.planKey(faults) == b.planKey(faults); sameJSON != sameKey {
				t.Errorf("specs %d and %d: same JSON %t, same key %t:\n%s\n%s", i, j, sameJSON, sameKey, ja, jb)
			}
		}
	}
	for k := 0; k < len(pairs); k++ {
		if specs[2*k].planKey(faults) != specs[2*k+1].planKey(faults) {
			t.Errorf("pair %d: equal after Canonicalize but keyed apart", k)
		}
	}
}
