package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/jsonw"
	"repro/internal/metrics"
)

// The reference encodes with encoding/json through method-free copies
// of the report types, so a MarshalJSON added to them later cannot
// make the appender its own reference.
type (
	refReport metrics.Report
	refResult ResultJSON
	refRun    struct {
		App     string      `json:"app"`
		Machine string      `json:"machine"`
		Procs   int         `json:"procs"`
		Level   string      `json:"level"`
		Fault   *fault.Spec `json:"fault,omitempty"`
		Metrics *refReport  `json:"metrics"`
	}
	refBench struct {
		Schema      string      `json:"schema"`
		Scale       string      `json:"scale"`
		Experiments []refResult `json:"experiments"`
		Runs        []refRun    `json:"runs"`
	}
)

func refOf(r *BenchReport) *refBench {
	ref := &refBench{Schema: r.Schema, Scale: r.Scale}
	if r.Experiments != nil {
		ref.Experiments = make([]refResult, len(r.Experiments))
		for i, e := range r.Experiments {
			ref.Experiments[i] = refResult(e)
		}
	}
	if r.Runs != nil {
		ref.Runs = make([]refRun, len(r.Runs))
		for i, run := range r.Runs {
			ref.Runs[i] = refRun{App: run.App, Machine: run.Machine, Procs: run.Procs,
				Level: run.Level, Fault: run.Fault, Metrics: (*refReport)(run.Metrics)}
		}
	}
	return ref
}

// refJSON is what WriteJSON wrote before the appender: encoding/json's
// Encoder with a two-space indent.
func refJSON(v any) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return b.Bytes(), err
}

// writeOnly hides bytes.Buffer's AvailableBuffer, so the appender
// builds in a buffer of its own.
type writeOnly struct{ w io.Writer }

func (w writeOnly) Write(p []byte) (int, error) { return w.w.Write(p) }

// sameJSON checks one encoding against the reference: the same bytes,
// or an error from both and nothing written.
func sameJSON(t *testing.T, what string, write func(io.Writer) error, ref any) {
	t.Helper()
	want, wantErr := refJSON(ref)
	for _, direct := range []bool{true, false} {
		var buf bytes.Buffer
		buf.WriteString("prior ")
		var w io.Writer = &buf
		if !direct {
			w = writeOnly{&buf}
		}
		err := write(w)
		got := bytes.TrimPrefix(buf.Bytes(), []byte("prior "))
		switch {
		case (err != nil) != (wantErr != nil):
			t.Fatalf("%s: error %v, encoding/json error %v", what, err, wantErr)
		case err != nil && len(got) != 0:
			t.Fatalf("%s: wrote %d bytes before failing with %v", what, len(got), err)
		case err == nil && !bytes.Equal(got, want):
			t.Fatalf("%s: appender differs from encoding/json\ngot:\n%s\nwant:\n%s", what, got, want)
		}
	}
}

// checkAll compares every encoder of the report types on the values
// a filler produces: the jadebench/v1 document, one jade-metrics/v1
// report, and a run's report written straight from the run.
func checkAll(t *testing.T, what string, f *filler) {
	t.Helper()
	var rep BenchReport
	f.fill(reflect.ValueOf(&rep).Elem())
	sameJSON(t, what+": BenchReport", rep.WriteJSON, refOf(&rep))

	var m metrics.Report
	f.fill(reflect.ValueOf(&m).Elem())
	sameJSON(t, what+": Report", func(w io.Writer) error {
		a := jsonw.Start(w)
		m.AppendJSON(&a)
		return a.Finish(w)
	}, (*refReport)(&m))

	var run metrics.Run
	f.fill(reflect.ValueOf(&run).Elem())
	sameJSON(t, what+": Run", run.WriteJSON, (*refReport)(run.Report()))
}

// A filler sets every field under a value by reflection: leaves from
// its float, int and string sources, and slice lengths and pointer
// presence from its length source (-1 means nil).
type filler struct {
	float  func() float64
	int    func() int64
	str    func() string
	length func() int
}

func (f *filler) fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				f.fill(v.Field(i))
			}
		}
	case reflect.Pointer:
		if f.length() < 0 {
			v.SetZero()
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(v.Elem())
	case reflect.Slice:
		n := f.length()
		if n < 0 {
			v.SetZero()
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			f.fill(v.Index(i))
		}
	case reflect.Float32, reflect.Float64:
		v.SetFloat(f.float())
	case reflect.Int, reflect.Int64:
		v.SetInt(f.int())
	case reflect.Uint64:
		v.SetUint(uint64(f.int()))
	case reflect.String:
		v.SetString(f.str())
	case reflect.Bool:
		v.SetBool(f.int() != 0)
	default:
		panic("filler: no rule for " + v.Type().String())
	}
}

// constant fills every leaf of one kind with the same value.
func constant(x float64, n int64, s string, length int) *filler {
	return &filler{
		float:  func() float64 { return x },
		int:    func() int64 { return n },
		str:    func() string { return s },
		length: func() int { return length },
	}
}

var (
	edgeFloats = []float64{1e-7, 1e21, math.Copysign(0, -1), 5e-324,
		math.MaxFloat64, 1e-6, 1e20, 0.1, 123456.789, -2.5e-8}
	edgeStrings = []string{"<>&", "\u2028\u2029", "bad \xff\xfe utf-8",
		"\x00\x01\b\f\n\r\t\x1f\x7f", `"quoted\path"`, "héllo ✓", ""}
)

func TestReportJSONMatchesEncodingJSON(t *testing.T) {
	checkAll(t, "all zero, all nil", constant(0, 0, "", -1))
	checkAll(t, "all zero, all empty", constant(0, 0, "", 0))
	checkAll(t, "all zero, one each", constant(0, 0, "", 1))
	checkAll(t, "all set", constant(1.5, 7, "x", 2))
	for _, x := range edgeFloats {
		checkAll(t, fmt.Sprintf("float %g", x), constant(x, -3, "s", 2))
	}
	for _, s := range edgeStrings {
		checkAll(t, fmt.Sprintf("string %q", s), constant(0.25, 1<<40, s, 1))
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkAll(t, fmt.Sprintf("float %g", x), constant(x, 1, "s", 1))
	}
}

// TestReportJSONCoversEveryField fails when a json-tagged field of the
// report types is added without being encoded: a fully populated
// document must carry every tag of every type.
func TestReportJSONCoversEveryField(t *testing.T) {
	var rep BenchReport
	constant(1.5, 7, "x", 1).fill(reflect.ValueOf(&rep).Elem())
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	run := doc["runs"].([]any)[0].(map[string]any)
	for _, c := range []struct {
		obj any
		typ reflect.Type
	}{
		{doc, reflect.TypeOf(BenchReport{})},
		{doc["experiments"].([]any)[0], reflect.TypeOf(ResultJSON{})},
		{run, reflect.TypeOf(InstrumentedRun{})},
		{run["metrics"], reflect.TypeOf(metrics.Report{})},
	} {
		var got, want []string
		for k := range c.obj.(map[string]any) {
			got = append(got, k)
		}
		for i := 0; i < c.typ.NumField(); i++ {
			tag, _, _ := strings.Cut(c.typ.Field(i).Tag.Get("json"), ",")
			want = append(want, tag)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: encoded keys %v, json tags %v", c.typ.Name(), got, want)
		}
	}
}

// FuzzReportJSON fills the report types from a seeded mix of the
// fuzzed floats and strings, the edge cases above, zero values, and
// nil, empty and short slices, and compares the appender with
// encoding/json on each.
func FuzzReportJSON(f *testing.F) {
	f.Add(int64(1), 1e-7, 1e21, "<>&", "\xff")
	f.Add(int64(2), math.Copysign(0, -1), 5e-324, "\u2028", "\x00\x1f")
	f.Add(int64(3), math.MaxFloat64, math.NaN(), "plain", "")
	f.Fuzz(func(t *testing.T, seed int64, x, y float64, s1, s2 string) {
		rng := rand.New(rand.NewSource(seed))
		floats := append([]float64{x, y, 0}, edgeFloats...)
		strs := append([]string{s1, s2}, edgeStrings...)
		checkAll(t, "fuzz", &filler{
			float: func() float64 {
				if rng.Intn(4) == 0 {
					return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
				}
				return floats[rng.Intn(len(floats))]
			},
			int: func() int64 {
				return []int64{0, 1, -1, math.MaxInt64, math.MinInt64, rng.Int63()}[rng.Intn(6)]
			},
			str:    func() string { return strs[rng.Intn(len(strs))] },
			length: func() int { return rng.Intn(5) - 1 },
		})
	})
}
