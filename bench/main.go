// Command bench is the repository's benchmark: four workloads, the
// end-to-end metrics BENCHMARK.json bounds, and a traced run that
// attributes host time to the layers of the Jade stack. See README.md.
//
//	bash bench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh                       # all four, untraced then traced
//	bash bench/run.sh -sets 10 > a.json     # ten sets, for -compare
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

func main() {
	var (
		cfg     runConfig
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced suite")
		child   = flag.Bool("child", false, "internal: run the workload in this process and print its result")
		sets    = flag.Int("sets", 1, "with no -workload: how many times to run the whole set, seeds counting up from -seed")
		compare = flag.Bool("compare", false, "compare two documents: -compare a.json b.json")
		update  = flag.String("update-golden", "", "recompute every golden digest and write them to this `path`")
	)
	flag.StringVar(&cfg.workload, "workload", "", "one of "+fmt.Sprint(workloadNames)+"; empty runs all four and prints one document")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed (1 while developing, 2 held out)")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed phase")
	flag.IntVar(&cfg.ops, "ops", 0, "run exactly this many ops instead of -seconds")
	flag.BoolVar(&cfg.setupOnly, "setup-only", false, "internal: stop after set-up and report setup_s alone")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1: write the recorded spans to this `file`")
	flag.Parse()
	cfg.trace = *trace != 0

	err := func() error {
		switch {
		case *update != "":
			return updateGolden(*update)
		case *compare:
			if flag.NArg() != 2 {
				return fmt.Errorf("-compare takes two documents")
			}
			return compareDocs(flag.Arg(0), flag.Arg(1))
		case *child:
			res, err := runWorkload(cfg)
			if err != nil {
				return err
			}
			return json.NewEncoder(os.Stdout).Encode(res)
		case cfg.workload != "":
			return contractRun(cfg)
		}
		return documentRun(cfg, *sets)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// spawn runs one workload in a process of its own — fresh caches, its
// own peak RSS — and returns what it reported.
func spawn(cfg runConfig) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-child", "-workload", cfg.workload,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-ops", strconv.Itoa(cfg.ops),
	}
	if cfg.trace {
		args = append(args, "-trace", "1", "-trace-out", cfg.traceOut)
	}
	if cfg.setupOnly {
		args = append(args, "-setup-only")
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s process: %w", cfg.workload, err)
	}
	var res result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("%s process: unreadable result: %w", cfg.workload, err)
	}
	return &res, nil
}

// setupRepeats is how many fresh processes set the workload up in an
// untraced run; setup_s is their median. Set-up runs once a process,
// so one reading would be one sample.
const setupRepeats = 3

// measure runs one workload once. Untraced, that is setupRepeats-1
// set-up-only processes and one that goes on to the timed phase;
// traced, one process running the traced suite.
func measure(cfg runConfig) (*result, error) {
	if cfg.trace {
		return spawn(cfg)
	}
	var setups []float64
	only := cfg
	only.setupOnly = true
	for i := 1; i < setupRepeats; i++ {
		r, err := spawn(only)
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.Metrics["setup_s"])
	}
	res, err := spawn(cfg)
	if err != nil {
		return nil, err
	}
	res.Metrics["setup_s"] = median(append(setups, res.Metrics["setup_s"]))
	return res, nil
}

// contractRun is the form the benchmark driver calls: one workload,
// one JSON object on the last line of standard output.
func contractRun(cfg runConfig) error {
	res, err := measure(cfg)
	if err != nil {
		return err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s: no value for %s (too few ops for its percentile?)", cfg.workload, d.Name)
		}
		out.Metrics[d.Name] = value{v, d.Unit}
	}
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "bench: failed op:", e)
	}
	// Failed ops are reported in the object, not by the exit code: the
	// driver reads "correct" and "failed".
	return json.NewEncoder(os.Stdout).Encode(out)
}
