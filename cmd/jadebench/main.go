// Command jadebench regenerates the paper's tables and figures on the
// simulated machines.
//
// Usage:
//
//	jadebench -list
//	jadebench -experiment table4 [-scale small|paper] [-parallel N]
//	jadebench -experiment all [-scale small|paper] [-markdown]
//	jadebench -experiment all -json
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
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/serve"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		expID    = flag.String("experiment", "all", "experiment ID (see -list) or \"all\"")
		scaleStr = flag.String("scale", "small", "workload scale: small or paper")
		markdown = flag.Bool("markdown", false, "emit markdown tables instead of text")
		jsonOut  = flag.Bool("json", false, "emit a machine-readable jadebench/v1 JSON report")
		parallel = flag.Int("parallel", 0, "worker pool width for independent runs (0 = GOMAXPROCS, 1 = serial)")
		faultStr = flag.String("fault", "", "inject deterministic faults into the instrumented runs: "+
			"comma-separated key=value (seed=N, drop=P, dup=P, linkpct=P, straggle=K, victims=K, invalidate=P); requires -json")
		spansOut = flag.String("spans", "",
			"write the job's jade-span/v1 lifecycle trace to this file, running the report "+
				"through the in-process serving path; requires -json")
		machine = flag.String("machine", "",
			"run the instrumented runs of the JSON report on one machine model "+
				"(dash, ipsc, cluster, or pgas) instead of the default mix; requires -json")
		pgasReport = flag.Bool("pgas-report", false,
			"emit the three-machine comparison (every app on dash, ipsc, and pgas) "+
				"as a jade-pgas/v1 JSON document on stdout and exit")
		granReport = flag.Bool("granularity-report", false,
			"emit the granularity sweep (task size x fusion x coalescing on ipsc and pgas) "+
				"as a jade-granularity/v1 JSON document on stdout and exit")
	)
	flag.Parse()

	if *parallel < 0 {
		fmt.Fprintf(os.Stderr, "jadebench: -parallel must be >= 0 (got %d)\n", *parallel)
		os.Exit(2)
	}
	runner := experiments.NewRunner(*parallel)

	if *list {
		for _, id := range experiments.IDs() {
			e, _ := experiments.Get(id)
			fmt.Printf("%-26s %s\n", id, e.Title)
		}
		return
	}

	// Validate the flags up front so a typo fails in one line with
	// the valid choices, before any experiment work starts.
	scale, err := experiments.ParseScale(*scaleStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jadebench: %v\n", err)
		os.Exit(2)
	}
	ids := []string{*expID}
	if *expID == "all" {
		ids = experiments.IDs()
	} else if _, err := experiments.Get(*expID); err != nil {
		fmt.Fprintf(os.Stderr, "jadebench: %v\n", err)
		os.Exit(2)
	}
	switch *machine {
	case "", "dash", "ipsc", "cluster", "pgas":
	default:
		fmt.Fprintf(os.Stderr, "jadebench: -machine must be dash, ipsc, cluster, or pgas (got %q)\n", *machine)
		os.Exit(2)
	}
	if *machine != "" && !*jsonOut {
		fmt.Fprintln(os.Stderr, "jadebench: -machine selects the machine for the instrumented runs of the JSON report; add -json")
		os.Exit(2)
	}
	if *granReport {
		if err := experiments.BuildGranularityReport(runner, scale).WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "jadebench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *pgasReport {
		rep, err := experiments.BuildPgasReport(runner, scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jadebench: %v\n", err)
			os.Exit(2)
		}
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "jadebench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	fspec, err := fault.ParseFlag(*faultStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jadebench: %v\n", err)
		os.Exit(2)
	}
	if fspec != nil && !*jsonOut {
		fmt.Fprintln(os.Stderr, "jadebench: -fault applies to the instrumented runs of the JSON report; add -json")
		os.Exit(2)
	}
	if *spansOut != "" && !*jsonOut {
		fmt.Fprintln(os.Stderr, "jadebench: -spans traces the JSON report job; add -json")
		os.Exit(2)
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
					fmt.Fprintf(os.Stderr, "jadebench: %v\n", err)
					os.Exit(2)
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
			if err := runTraced(ids, runs, scale, *parallel, *spansOut); err != nil {
				fmt.Fprintf(os.Stderr, "jadebench: %v\n", err)
				os.Exit(1)
			}
			return
		}
		rep, err := runner.Report(ids, runs, scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jadebench: %v\n", err)
			os.Exit(2)
		}
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "jadebench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	results, _, err := runner.Execute(ids, nil, scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jadebench: %v\n", err)
		os.Exit(2)
	}
	for _, res := range results {
		var sb strings.Builder
		if *markdown {
			res.Markdown(&sb)
		} else {
			res.Render(&sb)
			sb.WriteString("\n")
		}
		fmt.Print(sb.String())
	}
}

// runTraced produces the JSON report through the in-process serving
// path with span capture on, writing the job's jade-span/v1 trace to
// spansPath and the report document to stdout. The result is
// byte-identical to the direct path — same engine, same spec — with
// the request lifecycle recorded around it.
func runTraced(ids []string, runs []experiments.RunSpec, scale experiments.Scale, parallel int, spansPath string) error {
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
	trace, err := s.TraceDoc(doc.ID)
	if err != nil {
		return err
	}
	f, err := os.Create(spansPath)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(trace); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "jadebench: wrote trace %s (%d phases) to %s\n",
		trace.TraceID, len(trace.Root.Children), spansPath)
	_, err = os.Stdout.Write(doc.Result)
	return err
}
