package experiments

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/golden"
	"repro/internal/metrics"
)

// TestGolden pins, one row per output under testdata/golden/, every
// experiment's text and markdown rendering at Small, the JSON documents
// jadebench -json, -granularity-report, -pgas-report and jaded emit,
// and the DASH wake streams (dashWakeRows). A change here changes a
// reproduced table, figure or document and must be deliberate:
// go test ./internal/experiments -update re-pins it.
func TestGolden(t *testing.T) {
	var rows []golden.Row
	for _, id := range IDs() {
		res := golden.Once(func(t *testing.T) [2][]byte {
			res, err := Run(id, Small)
			if err != nil {
				t.Fatal(err)
			}
			var text, md strings.Builder
			res.Render(&text)
			res.Markdown(&md)
			return [2][]byte{[]byte(text.String()), []byte(md.String())}
		})
		for i, ext := range []string{".txt", ".md"} {
			rows = append(rows, golden.Row{Name: "small/" + id + ext, Produce: func(t *testing.T) []byte { return res(t)[i] }})
		}
	}
	rows = append(rows, reportRows()...)
	golden.Run(t, append(rows, dashWakeRows()...))
}

// counterSpecs are runs whose omitempty counters are non-zero, so
// the pinned bytes cover the optional keys of jade-metrics/v1, the
// fault echo of jadebench/v1 and an observed faulted run.
var counterSpecs = []RunSpec{
	{App: "spmv", Machine: "pgas", Procs: 8},
	{App: "cholesky", Machine: "ipsc", Procs: 8, WorkFree: true, Fusion: true, Coalescing: true},
	{App: "spmv", Machine: "ipsc", Procs: 8, Level: LevelLocality, Coalescing: true},
	{App: "water", Machine: "ipsc", Procs: 8, Observe: true,
		Fault: &fault.Spec{Seed: 42, DropPct: 0.1, DupPct: 0.05}},
	{App: "ocean", Machine: "dash", Procs: 8, Fault: &fault.Spec{Seed: 7, VictimClusters: 1, InvalidatePct: 0.2}},
	{App: "water", Machine: "cluster", Procs: 4},
}

// reportRows pins the JSON documents, each a manifest row.
func reportRows() []golden.Row {
	rows := []golden.Row{
		{Name: "report/all.json", Produce: func(t *testing.T) []byte {
			rep, err := BuildReportWithRuns(IDs(), DefaultRunSpecs(), Small)
			if err != nil {
				t.Fatal(err)
			}
			return encode(t, rep.WriteJSON)
		}},
		{Name: "report/counters.json", Produce: func(t *testing.T) []byte {
			rep, err := NewRunner(0).Report(nil, counterSpecs, Small)
			if err != nil {
				t.Fatal(err)
			}
			return encode(t, rep.WriteJSON)
		}},
		{Name: "report/granularity.json", Produce: func(t *testing.T) []byte {
			return encode(t, BuildGranularityReport(NewRunner(0), Small).WriteJSON)
		}},
		{Name: "report/pgas.json", Produce: func(t *testing.T) []byte {
			rep, err := BuildPgasReport(NewRunner(0), Small)
			if err != nil {
				t.Fatal(err)
			}
			return encode(t, rep.WriteJSON)
		}},
	}
	runs := golden.Once(func(t *testing.T) []*metrics.Run {
		runs, err := NewRunner(0).ExecuteRuns(counterSpecs, Small)
		if err != nil {
			t.Fatal(err)
		}
		if r := runs[0]; r.RemoteGets == 0 || r.AggregatedMsgs == 0 || r.AggBenefitBytes == 0 {
			t.Errorf("pgas run has no aggregation counters: %+v", r)
		}
		if r := runs[1]; r.TasksFused == 0 || r.FusionBenefitBytes == 0 {
			t.Errorf("fused run has no fusion counters: %+v", r)
		}
		if r := runs[2]; r.MsgsCoalesced == 0 {
			t.Errorf("coalescing run coalesced nothing: %+v", r)
		}
		if r := runs[3]; r.MsgDropped == 0 || r.MsgRetransmits == 0 || r.MsgDuplicates == 0 {
			t.Errorf("faulted ipsc run has no fault counters: %+v", r)
		}
		if r := runs[4]; r.FaultInvalidations == 0 {
			t.Errorf("faulted dash run has no invalidations: %+v", r)
		}
		return runs
	})
	for i, s := range counterSpecs {
		rows = append(rows, golden.Row{Name: fmt.Sprintf("report/metrics-%s-%s.json", s.App, s.Machine),
			Produce: func(t *testing.T) []byte { return runBytes(t, runs(t)[i]) }})
	}
	return rows
}

// encode returns what write writes.
func encode(t *testing.T, write func(io.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
