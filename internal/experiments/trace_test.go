package experiments

import (
	"bytes"
	"testing"

	"repro/internal/check"
	"repro/internal/obsv"
	"repro/internal/table"
	"repro/internal/trace"
)

// A traced cell is the run its table reports: on every machine, the
// trace sink changes no byte of the run, its exec time renders to the
// table's cell, and the recorded schedule validates.
func TestTraceCellMatchesTable(t *testing.T) {
	for _, c := range []struct {
		id       string
		n        int
		machine  string
		row, col int // where the cell's exec time sits in the rendered table
	}{
		{"table4", 9, "dash", 1, 3},                    // Locality at 4 processors
		{"table9", 17, "ipsc", 2, 4},                   // No Locality at 8 processors
		{"pgas-compare", 8, "pgas", 8, 2},              // Ocean on pgas
		{"extension-portability", 10, "cluster", 2, 3}, // Ocean on the cluster
		{"ablation-steal", 10, "dash", 1, 4},           // head-steal at 8 processors
		{"granularity-sweep", 14, "ipsc", 2, 2},        // fused, finest task size
	} {
		tr := trace.New()
		cell, run, tasks, err := TraceCell(c.id, c.n, Small, func(int) obsv.Sink { return tr })
		if err != nil {
			t.Fatalf("%s cell %d: %v", c.id, c.n, err)
		}
		if cell.Machine != c.machine {
			t.Fatalf("%s cell %d runs on %s, want %s", c.id, c.n, cell.Machine, c.machine)
		}
		results, runs, err := NewRunner(0).Execute([]string{c.id}, []RunSpec{cell}, Small)
		if err != nil {
			t.Fatal(err)
		}
		var traced, planned bytes.Buffer
		if err := run.WriteJSON(&traced); err != nil {
			t.Fatal(err)
		}
		if err := runs[0].WriteJSON(&planned); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(traced.Bytes(), planned.Bytes()) {
			t.Errorf("%s cell %d: traced run differs from the planned one:\n%s\nvs\n%s", c.id, c.n, traced.Bytes(), planned.Bytes())
		}
		if got, want := table.Cell(run.ExecTime), results[0].Rows[c.row][c.col]; got != want {
			t.Errorf("%s cell %d: exec time renders %s, table says %s", c.id, c.n, got, want)
		}
		if len(tr.Events()) == 0 {
			t.Errorf("%s cell %d: the trace recorded nothing", c.id, c.n)
		}
		if err := check.Validate(tr, tasks); err != nil {
			t.Errorf("%s cell %d: %v", c.id, c.n, err)
		}
	}
}
