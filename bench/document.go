package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// document is what a run without -workload prints: every workload,
// untraced then traced, once per set. -compare reads two of them.
type document struct {
	Schema  string   `json:"schema"`
	Seconds float64  `json:"seconds"`
	Ops     int      `json:"ops,omitempty"`
	Runs    []result `json:"runs"`
}

const documentSchema = "jade-bench/v1"

// documentRun runs the whole benchmark sets times, set k with seed
// cfg.seed+k, and prints one document. Any failed op makes the exit
// code non-zero, after the document is out.
func documentRun(cfg runConfig, sets int) error {
	doc := document{Schema: documentSchema, Seconds: cfg.seconds, Ops: cfg.ops}
	failed := 0
	for set := 0; set < sets; set++ {
		for _, trace := range []bool{false, true} {
			for _, w := range workloadNames {
				c := cfg
				c.workload, c.seed, c.trace = w, cfg.seed+int64(set), trace
				if trace && c.traceOut != "" {
					c.traceOut = fmt.Sprintf("%s.%s.seed%d.json", cfg.traceOut, w, c.seed)
				}
				fmt.Fprintf(os.Stderr, "bench: set %d/%d %s trace=%t\n", set+1, sets, w, trace)
				res, err := measure(c)
				if err != nil {
					return err
				}
				for _, e := range res.Errors {
					fmt.Fprintln(os.Stderr, "bench: failed op:", e)
				}
				failed += res.Failed
				doc.Runs = append(doc.Runs, *res)
			}
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	if err := enc.Encode(&doc); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed", failed)
	}
	return nil
}

func readDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != documentSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, documentSchema)
	}
	return &doc, nil
}

// values collects one metric's readings on one workload, from the
// untraced or the traced runs of a document.
func (d *document) values(workload, metric string, trace bool) []float64 {
	var vals []float64
	for i := range d.Runs {
		r := &d.Runs[i]
		if r.Workload == workload && r.Trace == trace {
			if v, ok := r.Metrics[metric]; ok {
				vals = append(vals, v)
			}
		}
	}
	return vals
}
