package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/fault"
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
// jaded emit and must be deliberate.
func TestReportJSONDigests(t *testing.T) {
	const (
		benchSHA   = "bfcc057bc41e90d44c33ba5413f09f7fa2c32d5a8a89f45bb31277d792c0b2a8"
		specsSHA   = "c9814da1a7d9f37cfdff452e13b450c50edd93fd00722d20f8ce1c933735c38e"
		metricsSHA = "ca08cf405284c7ba7cda4c62d60ab35cf42ec9a2d5f9bd181bfb33335833d333"
		granSHA    = "64efd378a59da2b76f66b5fbda74cf971bba2288a343ea2f266086dda694dd43"
		pgasSHA    = "f49286f1f34c8b26b037869cfb6c7d7c093d08d58aaaf4f9b0e1756c0ada8345"
	)
	rep, err := BuildReportWithRuns(IDs(), DefaultRunSpecs(), Small)
	if err != nil {
		t.Fatal(err)
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

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
