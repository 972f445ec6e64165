// Command jadebench regenerates the paper's tables and figures on the
// simulated machines.
//
// Usage:
//
//	jadebench -list
//	jadebench -experiment table4 [-scale small|paper] [-parallel N]
//	jadebench -experiment all [-scale small|paper] [-markdown]
//	jadebench -experiment all -json
//	jadebench -experiment table4 -cell N [-log] [-perfetto out.json] [-hot K]
//
// With -json, the selected experiment tables plus one
// observability-instrumented run per app/machine pair are emitted as
// a single jadebench/v1 JSON document on stdout (see EXPERIMENTS.md
// for the schema).
//
// The selected experiments are one planned execution: every distinct
// simulation run they read executes once, fanned out across a runner
// -parallel workers wide (default GOMAXPROCS; 1 forces serial
// execution). The machine models are deterministic and results are
// assembled in input order, so the output is byte-identical at every
// width.
//
// With -fault (e.g. -fault seed=7,drop=0.05,straggle=2), the
// instrumented runs in the JSON report execute under deterministic
// fault injection (jade-fault/v1): the same seed always reproduces the
// same faulted execution, byte for byte. Requires -json.
//
// With -machine (requires -json), every instrumented run in the JSON
// report executes on the named machine model (dash, ipsc, cluster, or
// pgas) instead of the default mix; runs that become identical under
// the override are collapsed.
//
// With -pgas-report, the three-machine comparison — every app on
// dash, ipsc, and pgas, the SpMV aggregation study, and the
// which-optimizations-transfer table — is emitted as a jade-pgas/v1
// JSON document on stdout (see EXPERIMENTS.md for the schema).
//
// With -granularity-report, the granularity sweep — the synthetic
// block-iteration workload across task sizes with the fusion and
// coalescing knobs in every combination on ipsc and pgas — is emitted
// as a jade-granularity/v1 JSON document on stdout (see
// EXPERIMENTS.md for the schema).
//
// With -cell N, jadebench traces the Nth run the experiment reads at
// -scale (the run behind one table or figure cell) instead of rendering
// the experiment: it replays that cell exactly as the table does, with
// the event trace attached, and prints the cell, a per-processor Gantt
// chart and a summary line. It validates the recorded schedule
// (conflicting tasks ordered and non-overlapping) and exits 1 if it is
// invalid. -log prints the raw event log too, -perfetto writes the
// trace as Chrome trace-event JSON (ui.perfetto.dev, chrome://tracing),
// and -hot K attaches the runtime observer and prints the K hottest
// shared objects by bytes moved. An N out of range lists the
// experiment's cells by index.
//
// With -spans out.json (requires -json), the report is produced by
// pushing the job through the in-process serving path — the same
// admission, queue, and execution pipeline jaded runs — with span
// capture on, and the job's jade-span/v1 lifecycle trace is written
// to out.json. The report document on stdout is byte-identical to the
// direct path; the trace shows where the wall time went.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/check"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/obsv"
	"repro/internal/serve"
	"repro/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one jadebench invocation and returns its exit status:
// 2 for bad flags, 1 for runtime errors and invalid schedules.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jadebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list experiment IDs and exit")
		expID    = fs.String("experiment", "all", "experiment ID (see -list) or \"all\"")
		scaleStr = fs.String("scale", "small", "workload scale: small or paper")
		markdown = fs.Bool("markdown", false, "emit markdown tables instead of text")
		jsonOut  = fs.Bool("json", false, "emit a machine-readable jadebench/v1 JSON report")
		parallel = fs.Int("parallel", 0, "worker pool width for independent runs (0 = GOMAXPROCS, 1 = serial)")
		faultStr = fs.String("fault", "", "inject deterministic faults into the instrumented runs: "+
			"comma-separated key=value (seed=N, drop=P, dup=P, linkpct=P, straggle=K, victims=K, invalidate=P); requires -json")
		spansOut = fs.String("spans", "",
			"write the job's jade-span/v1 lifecycle trace to this file, running the report "+
				"through the in-process serving path; requires -json")
		machine = fs.String("machine", "",
			"run the instrumented runs of the JSON report on one machine model "+
				"(dash, ipsc, cluster, or pgas) instead of the default mix; requires -json")
		pgasReport = fs.Bool("pgas-report", false,
			"emit the three-machine comparison (every app on dash, ipsc, and pgas) "+
				"as a jade-pgas/v1 JSON document on stdout and exit")
		granReport = fs.Bool("granularity-report", false,
			"emit the granularity sweep (task size x fusion x coalescing on ipsc and pgas) "+
				"as a jade-granularity/v1 JSON document on stdout and exit")
		cell      = fs.Int("cell", 0, "trace the Nth run the experiment reads (Gantt chart, schedule check) instead of rendering it")
		logEvents = fs.Bool("log", false, "print the raw event log of the traced cell too; requires -cell")
		perfetto  = fs.String("perfetto", "", "write the traced cell as Chrome trace-event JSON to this file; requires -cell")
		hot       = fs.Int("hot", 0, "print the K hottest shared objects of the traced cell (attaches the observer); requires -cell")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if *parallel < 0 {
		return fail(stderr, 2, "-parallel must be >= 0 (got %d)", *parallel)
	}
	runner := experiments.NewRunner(*parallel)

	if *list {
		for _, id := range experiments.IDs() {
			e, _ := experiments.Get(id)
			fmt.Fprintf(stdout, "%-26s %s\n", id, e.Title)
		}
		return 0
	}

	// Validate the flags up front so a typo fails in one line with
	// the valid choices, before any experiment work starts.
	scale, err := experiments.ParseScale(*scaleStr)
	if err != nil {
		return fail(stderr, 2, "%v", err)
	}
	ids := []string{*expID}
	if *expID == "all" {
		ids = experiments.IDs()
	} else if _, err := experiments.Get(*expID); err != nil {
		return fail(stderr, 2, "%v", err)
	}
	switch *machine {
	case "", "dash", "ipsc", "cluster", "pgas":
	default:
		return fail(stderr, 2, "-machine must be dash, ipsc, cluster, or pgas (got %q)", *machine)
	}
	if *machine != "" && !*jsonOut {
		return fail(stderr, 2, "-machine selects the machine for the instrumented runs of the JSON report; add -json")
	}
	if set["cell"] {
		for _, other := range []string{"json", "markdown", "pgas-report", "granularity-report"} {
			if set[other] {
				return fail(stderr, 2, "-cell traces one run; it does not combine with -%s", other)
			}
		}
		if *expID == "all" {
			return fail(stderr, 2, "-cell traces a run of one experiment; name it with -experiment")
		}
		return traceCell(*expID, *cell, scale, *logEvents, *perfetto, *hot, stdout, stderr)
	}
	if set["log"] || set["perfetto"] || set["hot"] {
		return fail(stderr, 2, "-log, -perfetto and -hot apply to a traced cell; add -cell N")
	}
	if *granReport {
		if err := experiments.BuildGranularityReport(runner, scale).WriteJSON(stdout); err != nil {
			return fail(stderr, 1, "%v", err)
		}
		return 0
	}
	if *pgasReport {
		rep, err := experiments.BuildPgasReport(runner, scale)
		if err != nil {
			return fail(stderr, 2, "%v", err)
		}
		if err := rep.WriteJSON(stdout); err != nil {
			return fail(stderr, 1, "%v", err)
		}
		return 0
	}
	fspec, err := fault.ParseFlag(*faultStr)
	if err != nil {
		return fail(stderr, 2, "%v", err)
	}
	if fspec != nil && !*jsonOut {
		return fail(stderr, 2, "-fault applies to the instrumented runs of the JSON report; add -json")
	}
	if *spansOut != "" && !*jsonOut {
		return fail(stderr, 2, "-spans traces the JSON report job; add -json")
	}
	if *jsonOut {
		runs := experiments.DefaultRunSpecs()
		for i := range runs {
			runs[i].Fault = fspec
			if *machine != "" {
				runs[i].Machine = *machine
				if *machine == "cluster" {
					// The cluster has no locality levels; let
					// canonicalization pick its defaults.
					runs[i].Level = ""
				}
			}
		}
		if *machine != "" {
			// Forcing one machine can make formerly distinct specs
			// identical (SpMV appears once per machine by default);
			// keep the first of each.
			seen := map[string]bool{}
			kept := runs[:0]
			for _, r := range runs {
				c := r
				if err := c.Canonicalize(); err != nil {
					return fail(stderr, 2, "%v", err)
				}
				key, _ := json.Marshal(c)
				if seen[string(key)] {
					continue
				}
				seen[string(key)] = true
				kept = append(kept, r)
			}
			runs = kept
		}
		if *spansOut != "" {
			if err := runTraced(ids, runs, scale, *parallel, *spansOut, stdout, stderr); err != nil {
				return fail(stderr, 1, "%v", err)
			}
			return 0
		}
		rep, err := runner.Report(ids, runs, scale)
		if err != nil {
			return fail(stderr, 2, "%v", err)
		}
		if err := rep.WriteJSON(stdout); err != nil {
			return fail(stderr, 1, "%v", err)
		}
		return 0
	}
	results, _, err := runner.Execute(ids, nil, scale)
	if err != nil {
		return fail(stderr, 2, "%v", err)
	}
	for _, res := range results {
		var sb strings.Builder
		if *markdown {
			res.Markdown(&sb)
		} else {
			res.Render(&sb)
			sb.WriteString("\n")
		}
		io.WriteString(stdout, sb.String())
	}
	return 0
}

// fail reports an error on stderr and returns the exit status code.
func fail(stderr io.Writer, code int, format string, args ...any) int {
	fmt.Fprintf(stderr, "jadebench: "+format+"\n", args...)
	return code
}

// ganttWidth is the traced cell's Gantt chart width in columns.
const ganttWidth = 96

// traceCell replays cell n of experiment id with the event trace (and,
// for hot > 0, the observer) attached, prints what the flags ask for,
// then the Gantt chart, a summary line, the schedule check and the
// lifecycle check.
func traceCell(id string, n int, scale experiments.Scale, logEvents bool, perfetto string, hot int, stdout, stderr io.Writer) int {
	tr := trace.New()
	var obs *obsv.Observer
	cell, res, tasks, err := experiments.TraceCell(id, n, scale, func(procs int) obsv.Sink {
		if hot <= 0 {
			return tr
		}
		obs = obsv.New(procs)
		return obsv.Tee{tr, obs}
	})
	if err != nil {
		return fail(stderr, 2, "%v", err)
	}
	spec, _ := json.Marshal(cell) // a RunSpec always marshals
	if v := cell.Variant(); v != "" {
		spec = fmt.Appendf(spec, " [%s]", v)
	}
	fmt.Fprintf(stdout, "%s cell %d at scale %s: %s\n\n", id, n, scale, spec)
	if perfetto != "" {
		if err := writeFile(perfetto, func(w io.Writer) error { return trace.WritePerfetto(w, tr) }); err != nil {
			return fail(stderr, 1, "%v", err)
		}
		fmt.Fprintf(stdout, "wrote %s (%d events; open in ui.perfetto.dev)\n", perfetto, len(tr.Events()))
	}
	if obs != nil {
		obs.Snapshot(hot).WriteHotObjects(stdout)
		fmt.Fprintln(stdout)
	}
	if logEvents {
		tr.WriteLog(stdout)
		fmt.Fprintln(stdout)
	}
	tr.Gantt(stdout, ganttWidth)
	fmt.Fprintf(stdout, "\n%d events, %d tasks, exec %.6fs, locality %.1f%%\n",
		len(tr.Events()), res.TaskCount, res.ExecTime, res.LocalityPct())
	if err := check.Validate(tr, tasks); err != nil {
		return fail(stderr, 1, "SCHEDULE INVALID: %v", err)
	}
	if err := check.EventOrdering(tr); err != nil {
		return fail(stderr, 1, "LIFECYCLE INVALID: %v", err)
	}
	fmt.Fprintln(stdout, "schedule validated: conflicting tasks ordered and non-overlapping")
	return 0
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runTraced produces the JSON report through the in-process serving
// path with span capture on, writing the job's jade-span/v1 trace to
// spansPath and the report document to stdout. The result is
// byte-identical to the direct path — same engine, same spec — with
// the request lifecycle recorded around it.
func runTraced(ids []string, runs []experiments.RunSpec, scale experiments.Scale, parallel int, spansPath string, stdout, stderr io.Writer) error {
	s := serve.New(serve.Config{Workers: 1, CacheEntries: -1, Spans: true, RunParallelism: parallel})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	spec := &serve.JobSpec{
		Schema:      serve.JobSchema,
		Experiments: ids,
		Runs:        runs,
		Scale:       string(scale),
	}
	doc, err := s.RunSync(context.Background(), spec, "")
	if err != nil {
		return err
	}
	if doc.Status != serve.StatusDone {
		return fmt.Errorf("job %s: %s", doc.Status, doc.Error)
	}
	spans, err := s.TraceDoc(doc.ID)
	if err != nil {
		return err
	}
	if err := writeFile(spansPath, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(spans)
	}); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "jadebench: wrote trace %s (%d phases) to %s\n",
		spans.TraceID, len(spans.Root.Children), spansPath)
	_, err = stdout.Write(doc.Result)
	return err
}
