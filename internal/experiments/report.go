package experiments

import (
	"io"

	"repro/internal/fault"
	"repro/internal/jsonw"
	"repro/internal/metrics"
)

// BenchSchema identifies the jadebench JSON layout. Bump only on
// breaking changes; additions keep the version.
const BenchSchema = "jadebench/v1"

// ResultJSON is the machine-readable form of one regenerated table.
type ResultJSON struct {
	ID    string     `json:"id"`
	Title string     `json:"title"`
	Head  []string   `json:"head"`
	Rows  [][]string `json:"rows"`
	Notes string     `json:"notes,omitempty"`
}

// InstrumentedRun is one observability-enabled execution: an app run
// once on one machine with the Observer attached, reported through
// the full metrics schema (per-object stats, latency histograms,
// per-processor timeline).
type InstrumentedRun struct {
	App     string `json:"app"`
	Machine string `json:"machine"`
	Procs   int    `json:"procs"`
	Level   string `json:"level"`
	// Fault echoes the run's fault-injection block so a faulted
	// document is self-describing; absent on healthy runs.
	Fault   *fault.Spec     `json:"fault,omitempty"`
	Metrics *metrics.Report `json:"metrics"`
}

// BenchReport is the top-level object emitted by jadebench -json.
type BenchReport struct {
	Schema      string            `json:"schema"`
	Scale       string            `json:"scale"`
	Experiments []ResultJSON      `json:"experiments"`
	Runs        []InstrumentedRun `json:"runs"`
}

// instrumentedProcs is the processor count used for the
// observability runs included in the JSON report; 8 matches the
// midpoint of the paper's sweeps and keeps the report cheap.
const instrumentedProcs = 8

// BuildReport runs the given experiments plus the standard
// instrumented run per app/machine pair (DefaultRunSpecs) and
// assembles the jadebench/v1 report.
func BuildReport(ids []string, scale Scale) (*BenchReport, error) {
	return BuildReportWithRuns(ids, DefaultRunSpecs(), scale)
}

// BuildReportWithRuns is Report on a GOMAXPROCS-wide runner.
func BuildReportWithRuns(ids []string, specs []RunSpec, scale Scale) (*BenchReport, error) {
	return Runner{}.Report(ids, specs, scale)
}

// Report runs the given experiment IDs and the given run specs at one
// scale and assembles the jadebench/v1 report. Both lists may be empty;
// the report preserves their order. This is the entry point the jaded
// job service drives: every part of the request is serializable data,
// and on the deterministic machine models the same inputs always
// produce a byte-identical document.
//
// Experiments and runs are one planned execution (Execute): every
// distinct cell runs once across the runner's pool into a pre-indexed
// slot, so the document bytes are identical to serial execution, and
// the first error by input position — not completion order — wins.
func (r Runner) Report(ids []string, specs []RunSpec, scale Scale) (*BenchReport, error) {
	p, err := newPlan(ids, specs, scale)
	if err != nil {
		return nil, err
	}
	results, runs := r.execute(&p, scale)
	rep := &BenchReport{
		Schema:      BenchSchema,
		Scale:       string(scale),
		Experiments: make([]ResultJSON, len(ids)),
		Runs:        make([]InstrumentedRun, len(specs)),
	}
	for i, res := range results {
		rep.Experiments[i] = ResultJSON{
			ID: res.ID, Title: res.Title, Head: res.Head,
			Rows: res.Rows, Notes: res.Notes,
		}
	}
	for j, run := range runs {
		rep.Runs[j] = p.cells[p.specSlots[j]].instrumented(run)
	}
	return rep, nil
}

// WriteJSON writes the report as indented JSON, byte-identical to
// encoding/json's Encoder with a two-space indent. Only the fault
// echoes and the observability blocks go through encoding/json.
func (r *BenchReport) WriteJSON(w io.Writer) error {
	a := jsonw.Start(w)
	a.Open('{')
	a.Key("schema").String(r.Schema)
	a.Key("scale").String(r.Scale)
	jsonw.Slice(a.Key("experiments"), r.Experiments, appendResult)
	jsonw.Slice(a.Key("runs"), r.Runs, appendInstrumented)
	a.Close('}')
	return a.Finish(w)
}

func appendResult(a *jsonw.Appender, res ResultJSON) {
	a.Open('{')
	a.Key("id").String(res.ID)
	a.Key("title").String(res.Title)
	jsonw.Slice(a.Key("head"), res.Head, (*jsonw.Appender).String)
	jsonw.Slice(a.Key("rows"), res.Rows, appendRow)
	if res.Notes != "" {
		a.Key("notes").String(res.Notes)
	}
	a.Close('}')
}

func appendRow(a *jsonw.Appender, row []string) {
	jsonw.Slice(a, row, (*jsonw.Appender).String)
}

func appendInstrumented(a *jsonw.Appender, run InstrumentedRun) {
	a.Open('{')
	a.Key("app").String(run.App)
	a.Key("machine").String(run.Machine)
	a.Key("procs").Int(int64(run.Procs))
	a.Key("level").String(run.Level)
	if run.Fault != nil {
		a.Key("fault").Indented(run.Fault)
	}
	run.Metrics.AppendJSON(a.Key("metrics"))
	a.Close('}')
}
