package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/fault"
)

// Bad flag values exit 2 with a message instead of silently running a
// default or panicking inside the experiments.
func TestBadFlagsExit2(t *testing.T) {
	for _, args := range []string{
		"-parallel -1",
		"-scale bogus",
		"-experiment bogus",
		"-machine bogus",
		"-machine dash",
		"-fault seed=1,drop=0.1",
		"-spans out.json",
		"-undefined-flag",
		"-experiment table4 -cell 9999",
		"-experiment table4 -cell -1",
		"-experiment table1 -cell 0",
		"-cell 0",
		"-experiment all -cell 0",
		"-experiment table4 -cell 0 -json",
		"-experiment table4 -cell 0 -markdown",
		"-experiment table4 -cell 0 -pgas-report",
		"-experiment table4 -cell 0 -granularity-report",
		"-experiment table4 -log",
		"-experiment table4 -perfetto out.json",
		"-experiment table4 -hot 5",
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(args), &stdout, &stderr); code != 2 {
			t.Errorf("jadebench %s: exit %d, want 2", args, code)
		}
		if stderr.Len() == 0 {
			t.Errorf("jadebench %s: no message on stderr", args)
		}
	}
}

// An out-of-range cell lists the experiment's cells by index, each with
// its variant, so the error itself shows which N to pass even where two
// cells marshal to the same JSON.
func TestCellOutOfRangeListsCells(t *testing.T) {
	for id, want := range map[string][]string{
		"table4": {
			`   0  {"app":"ocean","machine":"dash","procs":1,"level":"placement"}` + "\n",
			`  20  {"app":"ocean","machine":"dash","procs":32,"level":"none"}`,
		},
		"ablation-steal": {
			`   3  {"app":"cholesky","machine":"dash","procs":8,"level":"locality"}` + "\n",
			`  10  {"app":"cholesky","machine":"dash","procs":8,"level":"locality"}  [steal-head]`,
		},
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-experiment", id, "-cell", "9999"}, &stdout, &stderr); code != 2 {
			t.Fatalf("%s: exit %d, want 2", id, code)
		}
		for _, w := range want {
			if !strings.Contains(stderr.String(), w) {
				t.Errorf("%s: stderr lacks %q:\n%s", id, w, stderr.String())
			}
		}
	}
}

// The documented fault command degrades only the machines that model
// its faults: no DASH run, which models neither loss nor stragglers,
// carries a fault block, and every iPSC run carries the drop rate.
func TestFaultFlagSkipsUnmodeledMachines(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := "-experiment table4 -scale small -json -fault seed=7,drop=0.05,straggle=2"
	if code := run(strings.Fields(args), &stdout, &stderr); code != 0 {
		t.Fatalf("jadebench %s: exit %d: %s", args, code, stderr.String())
	}
	var doc struct {
		Runs []struct {
			App, Machine string
			Fault        *fault.Spec
		}
	}
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var dash, ipsc int
	for _, r := range doc.Runs {
		switch r.Machine {
		case "dash":
			dash++
			if r.Fault != nil {
				t.Errorf("%s/dash carries fault %+v", r.App, *r.Fault)
			}
		case "ipsc":
			ipsc++
			if r.Fault == nil || r.Fault.DropPct != 0.05 {
				t.Errorf("%s/ipsc carries fault %+v, want drop_pct 0.05", r.App, r.Fault)
			}
		}
	}
	if dash == 0 || ipsc == 0 {
		t.Fatalf("%d DASH and %d iPSC runs; want both", dash, ipsc)
	}
}
