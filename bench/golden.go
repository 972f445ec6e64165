package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/serve"
)

//go:embed golden.json
var goldenJSON []byte

// goldenFile is bench/golden.json: what every output of the frozen
// inputs must be. A digest is the first 8 bytes of the output's
// SHA-256, in hex; the list lengths freeze the input lists themselves.
// It is rewritten only by -update-golden.
type goldenFile struct {
	// Tables holds one digest per rendered table, in tableIDs order.
	Tables []string `json:"tables"`
	// Sweep holds one digest per sweep cell's report JSON.
	Sweep []string `json:"sweep"`
	// Hot and Cold hold one digest per pool job's result document, in
	// pool (not request) order.
	Hot  []string `json:"hot"`
	Cold []string `json:"cold"`
	// SimStats are the simulated-statistic sums over the sweep cells;
	// a host-side change must leave every one of them identical.
	SimStats map[string]float64 `json:"sim_stats"`
}

func loadGolden() (*goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// verifier checks the outputs of one frozen list. The first output
// seen for an item is hashed against the golden digest and kept; every
// later output of that item is compared byte for byte with the kept
// copy, which is both stricter and cheaper than hashing again. Items
// are first seen during the single-goroutine warm-up, so the timed
// phase only reads.
type verifier struct {
	list string
	want []string
	ref  [][]byte
}

func newVerifier(list string, want []string, n int) (*verifier, error) {
	if len(want) != n {
		return nil, fmt.Errorf("golden: list %s has %d items, golden.json records %d (run -update-golden only if the change is meant)", list, n, len(want))
	}
	return &verifier{list: list, want: want, ref: make([][]byte, n)}, nil
}

func (v *verifier) check(i int, out []byte) error {
	if ref := v.ref[i]; ref != nil {
		if !bytes.Equal(ref, out) {
			return fmt.Errorf("%s[%d]: output changed between two runs of the same input", v.list, i)
		}
		return nil
	}
	if got := digest(out); got != v.want[i] {
		return fmt.Errorf("%s[%d]: digest %s, golden %s", v.list, i, got, v.want[i])
	}
	v.ref[i] = append([]byte(nil), out...)
	return nil
}

// updateGolden recomputes every digest and sum from the current code
// and writes them to path.
func updateGolden(path string) error {
	var g goldenFile
	for _, id := range tableIDs {
		out, err := renderTable(id)
		if err != nil {
			return err
		}
		g.Tables = append(g.Tables, digest(out))
	}
	specs := sweepSpecs()
	runs, reports, err := runSweep(specs)
	if err != nil {
		return err
	}
	for _, rep := range reports {
		g.Sweep = append(g.Sweep, digest(rep))
	}
	g.SimStats = simStats(specs, runs)
	for _, p := range []struct {
		jobs []*serve.JobSpec
		dst  *[]string
	}{{hotPool(), &g.Hot}, {coldPool(), &g.Cold}} {
		for _, job := range p.jobs {
			out, err := execJob(job)
			if err != nil {
				return err
			}
			*p.dst = append(*p.dst, digest(out))
		}
	}
	b, err := json.MarshalIndent(&g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
