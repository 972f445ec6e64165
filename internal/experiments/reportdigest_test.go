package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/obsv"
)

// reportDigestSpecs are runs whose omitempty counters are non-zero, so
// the pinned bytes cover the optional keys of jade-metrics/v1, the
// fault echo of jadebench/v1 and an observed faulted run.
var reportDigestSpecs = []RunSpec{
	{App: "spmv", Machine: "pgas", Procs: 8},
	{App: "cholesky", Machine: "ipsc", Procs: 8, WorkFree: true, Fusion: true, Coalescing: true},
	{App: "spmv", Machine: "ipsc", Procs: 8, Level: LevelLocality, Coalescing: true},
	{App: "water", Machine: "ipsc", Procs: 8, Observe: true,
		Fault: &fault.Spec{Seed: 42, DropPct: 0.1, DupPct: 0.05}},
	{App: "ocean", Machine: "dash", Procs: 8, Fault: &fault.Spec{Seed: 7, VictimClusters: 1, InvalidatePct: 0.2}},
	{App: "water", Machine: "cluster", Procs: 4},
}

// TestReportJSONDigests pins the bytes of both JSON documents: the
// jadebench/v1 report of every experiment plus the default
// observability runs at Small, the jadebench/v1 report of
// reportDigestSpecs alone, their concatenated jade-metrics/v1 reports,
// and the jade-granularity/v1 and jade-pgas/v1 documents. A change here
// changes what jadebench -json, -granularity-report, -pgas-report and
// jaded emit and must be deliberate. A document with observed runs is
// pinned as two digests: the document without the runs' observability
// blocks, and the blocks one after another, so a change to the
// per-object view shows apart from the rest.
func TestReportJSONDigests(t *testing.T) {
	const (
		benchSHA       = "8022ee680203cc080116ebca94c4851db484060f81a8d6450ae2a90e294ca0ef"
		benchObsvSHA   = "cc6932a76664fb04c1276b11dcbe227e82e202bb8e3545c67071950f705ec94f"
		specsSHA       = "3797c413c1643cdb16927bb137b518000808757417588be6f4c766fe3b3416f3"
		specsObsvSHA   = "1d58d0d8527dd74f5adeca88d3c3ab7bf1589df2fae3ff412e79ecc8ac8f1440"
		metricsSHA     = "cb89bdda486fd75ea0b7eac250a40459f522003e8ea1aad5e9c03333afbb297d"
		metricsObsvSHA = "1d58d0d8527dd74f5adeca88d3c3ab7bf1589df2fae3ff412e79ecc8ac8f1440"
		granSHA        = "64efd378a59da2b76f66b5fbda74cf971bba2288a343ea2f266086dda694dd43"
		pgasSHA        = "f49286f1f34c8b26b037869cfb6c7d7c093d08d58aaaf4f9b0e1756c0ada8345"
	)
	rep, err := BuildReportWithRuns(IDs(), DefaultRunSpecs(), Small)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(takeObsv(t, rep.Runs, reportObsv)); got != benchObsvSHA {
		t.Errorf("jadebench/v1 report's observability blocks sha256 %s, want %s", got, benchObsvSHA)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(buf.Bytes()); got != benchSHA {
		t.Errorf("jadebench/v1 report sha256 %s, want %s", got, benchSHA)
	}

	rep, err = NewRunner(0).Report(nil, reportDigestSpecs, Small)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(takeObsv(t, rep.Runs, reportObsv)); got != specsObsvSHA {
		t.Errorf("jadebench/v1 report of the counter specs' observability blocks sha256 %s, want %s",
			got, specsObsvSHA)
	}
	buf.Reset()
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(buf.Bytes()); got != specsSHA {
		t.Errorf("jadebench/v1 report of the counter specs sha256 %s, want %s", got, specsSHA)
	}

	runs, err := NewRunner(0).ExecuteRuns(reportDigestSpecs, Small)
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
	if got := sha256Hex(takeObsv(t, runs, runObsv)); got != metricsObsvSHA {
		t.Errorf("jade-metrics/v1 observability blocks sha256 %s, want %s", got, metricsObsvSHA)
	}
	buf.Reset()
	for _, r := range runs {
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := sha256Hex(buf.Bytes()); got != metricsSHA {
		t.Errorf("jade-metrics/v1 reports sha256 %s, want %s", got, metricsSHA)
	}

	buf.Reset()
	if err := BuildGranularityReport(NewRunner(0), Small).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(buf.Bytes()); got != granSHA {
		t.Errorf("jade-granularity/v1 document sha256 %s, want %s", got, granSHA)
	}
	pgasRep, err := BuildPgasReport(NewRunner(0), Small)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := pgasRep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(buf.Bytes()); got != pgasSHA {
		t.Errorf("jade-pgas/v1 document sha256 %s, want %s", got, pgasSHA)
	}
}

// takeObsv takes every run's observability block, the field block
// points to, out of runs and returns the blocks' JSON, one after
// another.
func takeObsv[R any](t *testing.T, runs []R, block func(R) **obsv.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range runs {
		if b := block(r); *b != nil {
			if err := json.NewEncoder(&buf).Encode(*b); err != nil {
				t.Fatal(err)
			}
			*b = nil
		}
	}
	return buf.Bytes()
}

// reportObsv and runObsv point takeObsv at the observability block of
// a jadebench/v1 run and of a jade-metrics/v1 one.
func reportObsv(r InstrumentedRun) **obsv.Snapshot { return &r.Metrics.Observability }
func runObsv(r *metrics.Run) **obsv.Snapshot       { return &r.Obsv }

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
