// Command jadetrace runs one application on a simulated machine with
// event tracing enabled and prints the event log and a per-processor
// Gantt chart — a visual view of what the schedulers and the
// communicator actually did.
//
// Usage:
//
//	jadetrace -app ocean -machine ipsc -procs 4 [-level locality] [-log]
//	jadetrace -app ocean -machine ipsc -perfetto out.json
//	jadetrace -app ocean -machine dash -hot 10
//
// -perfetto writes the trace in Chrome trace-event JSON, loadable in
// ui.perfetto.dev or chrome://tracing. -hot N attaches the runtime
// observer and prints the N hottest shared objects by bytes moved.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/apps/cholesky"
	"repro/internal/apps/ocean"
	"repro/internal/apps/tomo"
	"repro/internal/apps/water"
	"repro/internal/check"
	"repro/internal/dash"
	"repro/internal/ipsc"
	"repro/internal/jade"
	"repro/internal/obsv"
	"repro/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one jadetrace invocation and returns its exit status:
// 2 for bad flags, 1 for runtime errors and invalid schedules.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jadetrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "ocean", "application: water, string, ocean, cholesky")
	machine := fs.String("machine", "ipsc", "machine: dash or ipsc")
	procs := fs.Int("procs", 4, "simulated processors")
	level := fs.String("level", "locality", "locality level: none, locality, placement")
	logEvents := fs.Bool("log", false, "print the raw event log too")
	width := fs.Int("width", 96, "gantt width in columns")
	verify := fs.Bool("verify", true, "validate the recorded schedule (conflicting tasks ordered, non-overlapping)")
	perfetto := fs.String("perfetto", "", "write the trace as Chrome trace-event JSON to this file")
	hot := fs.Int("hot", 0, "print the N hottest shared objects (attaches the observer)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	// Both machines number the paper's levels none, locality, placement
	// from zero.
	lv, ok := map[string]int{"none": 0, "locality": 1, "placement": 2}[*level]
	if !ok {
		fmt.Fprintf(stderr, "jadetrace: unknown level %q (none, locality, placement)\n", *level)
		return 2
	}
	if *machine != "dash" && *machine != "ipsc" {
		fmt.Fprintf(stderr, "jadetrace: unknown machine %q\n", *machine)
		return 2
	}
	if *procs < 1 || *machine == "ipsc" && *procs > 64 {
		fmt.Fprintf(stderr, "jadetrace: -procs %d out of range (dash: 1 or more, ipsc: 1..64)\n", *procs)
		return 2
	}

	tr := trace.New()
	var sink obsv.Sink = tr
	var obs *obsv.Observer
	if *hot > 0 {
		obs = obsv.New(*procs)
		sink = obsv.Tee{tr, obs}
	}
	var rt *jade.Runtime
	place := *level == "placement"
	if *machine == "dash" {
		m := dash.New(dash.DefaultConfig(*procs, dash.LocalityLevel(lv)))
		m.Sink = sink
		rt = jade.New(m, jade.Config{})
	} else {
		m := ipsc.New(ipsc.DefaultConfig(*procs, ipsc.LocalityLevel(lv)))
		m.Sink = sink
		rt = jade.New(m, jade.Config{})
	}

	switch *app {
	case "water":
		cfg := water.Small()
		cfg.Molecules = 96
		cfg.Iterations = 1
		water.Run(rt, cfg)
	case "string":
		cfg := tomo.Small()
		cfg.Rays = 64
		cfg.Iterations = 1
		tomo.Run(rt, cfg)
	case "ocean":
		cfg := ocean.Small()
		cfg.Iterations = 4
		cfg.Place = place
		ocean.Run(rt, cfg)
	case "cholesky":
		cfg := cholesky.Small()
		cfg.Place = place
		cholesky.Run(rt, cfg, cholesky.NewWorkload(cfg))
	default:
		fmt.Fprintf(stderr, "jadetrace: unknown app %q\n", *app)
		return 2
	}
	res := rt.Finish()

	if *perfetto != "" {
		f, err := os.Create(*perfetto)
		if err != nil {
			fmt.Fprintf(stderr, "jadetrace: %v\n", err)
			return 1
		}
		if err := trace.WritePerfetto(f, tr); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "jadetrace: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(stderr, "jadetrace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s (%d events; open in ui.perfetto.dev)\n", *perfetto, len(tr.Events()))
	}
	if *hot > 0 {
		obs.Snapshot(*hot).WriteHotObjects(stdout)
		fmt.Fprintln(stdout)
	}

	if *logEvents {
		tr.WriteLog(stdout)
		fmt.Fprintln(stdout)
	}
	tr.Gantt(stdout, *width)
	fmt.Fprintf(stdout, "\n%d events, %d tasks, exec %.6fs, locality %.1f%%\n",
		len(tr.Events()), res.TaskCount, res.ExecTime, res.LocalityPct())
	if *verify {
		if err := check.Validate(tr, rt.Tasks()); err != nil {
			fmt.Fprintf(stderr, "jadetrace: SCHEDULE INVALID: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, "schedule validated: conflicting tasks ordered and non-overlapping")
	}
	return 0
}
