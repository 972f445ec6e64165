package experiments

import (
	"bytes"
	"testing"
)

// granReportJSON builds the small-scale granularity report and returns
// its serialized bytes.
func granReportJSON(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := BuildGranularityReport(Runner{}, Small).WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

func TestGranularityReportDeterministic(t *testing.T) {
	if a, b := granReportJSON(t), granReportJSON(t); !bytes.Equal(a, b) {
		t.Fatalf("two builds of the granularity report differ:\nfirst:\n%s\nsecond:\n%s", a, b)
	}
}

func TestGranularityReportShape(t *testing.T) {
	rep := BuildGranularityReport(Runner{}, Small)
	if rep.Schema != GranularitySchema {
		t.Fatalf("schema = %q, want %q", rep.Schema, GranularitySchema)
	}
	wantCells := len(granMachines) * len(granKnobs) * len(granSizes)
	if len(rep.Cells) != wantCells {
		t.Fatalf("cells = %d, want %d", len(rep.Cells), wantCells)
	}
	if want := len(granMachines) * len(granKnobs); len(rep.Crossovers) != want {
		t.Fatalf("crossovers = %d, want %d", len(rep.Crossovers), want)
	}
	for _, c := range rep.Cells {
		if c.ExecTimeSec <= 0 || c.SerialTimeSec <= 0 {
			t.Fatalf("cell %+v has non-positive times", c)
		}
		if c.Fusion && (c.TasksFused == 0 || c.FusionBenefitBytes == 0) {
			t.Fatalf("fusion-on cell %+v records no fusion", c)
		}
		if !c.Fusion && c.TasksFused != 0 {
			t.Fatalf("fusion-off cell %+v records fused tasks", c)
		}
	}
}

// crossoverFor pulls one variant's break-even task size out of the
// report.
func crossoverFor(t *testing.T, rep *GranularityReport, machine string, fusion, coalescing bool) float64 {
	t.Helper()
	for _, x := range rep.Crossovers {
		if x.Machine == machine && x.Fusion == fusion && x.Coalescing == coalescing {
			return x.CrossoverWorkSec
		}
	}
	t.Fatalf("no crossover entry for %s fusion=%t coalescing=%t", machine, fusion, coalescing)
	return 0
}

// TestGranularityPassMovesCrossover is the acceptance criterion: with
// the pass on, parallelism must pay at a strictly smaller task size
// than with it off, on both machines.
func TestGranularityPassMovesCrossover(t *testing.T) {
	rep := BuildGranularityReport(Runner{}, Small)
	for _, machine := range granMachines {
		off := crossoverFor(t, rep, machine, false, false)
		on := crossoverFor(t, rep, machine, true, true)
		if off == 0 {
			t.Fatalf("%s: unoptimized run never crosses over on this grid", machine)
		}
		if on == 0 || on >= off {
			t.Fatalf("%s: pass-on crossover %gµs, want strictly below pass-off %gµs",
				machine, on*1e6, off*1e6)
		}
	}
}

// TestGranularityFinestSizeMessageCut checks the other acceptance bar:
// at the finest task size on the iPSC, fusion+coalescing cuts messages
// by at least 30% and execution time measurably.
func TestGranularityFinestSizeMessageCut(t *testing.T) {
	rep := BuildGranularityReport(Runner{}, Small)
	finest := granSizes[0]
	find := func(fusion, coalescing bool) GranularityCell {
		for _, c := range rep.Cells {
			if c.Machine == "ipsc" && c.TaskWorkSec == finest &&
				c.Fusion == fusion && c.Coalescing == coalescing {
				return c
			}
		}
		t.Fatalf("no ipsc cell at %gµs fusion=%t coalescing=%t", finest*1e6, fusion, coalescing)
		return GranularityCell{}
	}
	off, on := find(false, false), find(true, true)
	if on.MsgCount > off.MsgCount*7/10 {
		t.Fatalf("msgs %d -> %d: cut below 30%%", off.MsgCount, on.MsgCount)
	}
	if on.ExecTimeSec >= off.ExecTimeSec {
		t.Fatalf("exec %g -> %g: no speedup at finest granularity", off.ExecTimeSec, on.ExecTimeSec)
	}
	if on.MsgsCoalesced == 0 || on.TasksFused == 0 {
		t.Fatalf("optimized cell records no pass activity: %+v", on)
	}
	if on.TaskCount >= off.TaskCount {
		t.Fatalf("task count %d -> %d: fusion removed nothing", off.TaskCount, on.TaskCount)
	}
}
