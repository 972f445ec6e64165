package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
)

func reportJSON(t *testing.T, s RunSpec) []byte {
	t.Helper()
	r, err := s.Execute(Small)
	if err != nil {
		t.Fatalf("Execute(%+v): %v", s, err)
	}
	return runBytes(t, r)
}

// Two runs of the same faulted spec with the same seed must produce
// byte-identical result documents — the acceptance bar for the
// deterministic injector.
func TestFaultedRunsAreByteIdentical(t *testing.T) {
	specs := []RunSpec{
		{App: "water", Machine: "ipsc", Procs: 8, Observe: true,
			Fault: &fault.Spec{Seed: 42, DropPct: 0.1, DupPct: 0.05,
				DegradedLinkPct: 0.25, Stragglers: 2}},
		{App: "cholesky", Machine: "dash", Procs: 8, Observe: true,
			Fault: &fault.Spec{Seed: 7, VictimClusters: 1, InvalidatePct: 0.2}},
	}
	for _, s := range specs {
		a := reportJSON(t, s)
		b := reportJSON(t, s)
		if !bytes.Equal(a, b) {
			t.Errorf("%s/%s: two faulted runs with seed %d differ", s.App, s.Machine, s.Fault.Seed)
		}
	}
}

// Changing only the seed must change the faulted execution: the seed
// is a real input, not decoration.
func TestFaultSeedChangesOutcome(t *testing.T) {
	mk := func(seed uint64) RunSpec {
		return RunSpec{App: "water", Machine: "ipsc", Procs: 8,
			Fault: &fault.Spec{Seed: seed, DropPct: 0.15}}
	}
	if bytes.Equal(reportJSON(t, mk(1)), reportJSON(t, mk(2))) {
		t.Error("different fault seeds produced identical runs")
	}
}

// A spec with no fault block and a spec whose fault block enables no
// fault must produce byte-identical healthy results: inert blocks are
// canonicalized away and the nil injector leaves the machines on the
// original code paths.
func TestInertFaultBlockIsHealthy(t *testing.T) {
	for _, machine := range []string{"ipsc", "dash"} {
		healthy := RunSpec{App: "water", Machine: machine, Procs: 8, Observe: true}
		inert := healthy
		inert.Fault = &fault.Spec{Seed: 99}
		a, b := reportJSON(t, healthy), reportJSON(t, inert)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: inert fault block changed the result", machine)
		}
		if bytes.Contains(a, []byte("msg_dropped")) || bytes.Contains(a, []byte("delivery_attempts")) {
			t.Errorf("%s: healthy report mentions fault fields:\n%s", machine, a)
		}
	}
}

// Canonicalize must drop inert fault blocks so equivalent specs hash
// identically, and must reject faults on the cluster machine.
func TestFaultCanonicalization(t *testing.T) {
	s := RunSpec{App: "water", Machine: "ipsc", Fault: &fault.Spec{Seed: 3}}
	if err := s.Canonicalize(); err != nil {
		t.Fatalf("Canonicalize: %v", err)
	}
	if s.Fault != nil {
		t.Error("inert fault block survived canonicalization")
	}

	bad := RunSpec{App: "water", Machine: "cluster", Fault: &fault.Spec{Seed: 3, DropPct: 0.1}}
	if err := bad.Canonicalize(); err == nil {
		t.Error("active fault on the cluster machine was accepted")
	}
	invalid := RunSpec{App: "water", Machine: "ipsc", Fault: &fault.Spec{Seed: 3, DropPct: 1.5}}
	if err := invalid.Canonicalize(); err == nil {
		t.Error("drop_pct out of range was accepted")
	}
}

// Message loss must actually cost time and be visible in the metrics.
func TestFaultsDegradeAndAreCounted(t *testing.T) {
	healthy := RunSpec{App: "water", Machine: "ipsc", Procs: 8}
	faulted := healthy
	faulted.Fault = &fault.Spec{Seed: 11, DropPct: 0.2}
	hr, err := healthy.Execute(Small)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := faulted.Execute(Small)
	if err != nil {
		t.Fatal(err)
	}
	if fr.MsgDropped == 0 || fr.MsgRetransmits == 0 {
		t.Errorf("20%% drop counted no losses: dropped=%d retransmits=%d", fr.MsgDropped, fr.MsgRetransmits)
	}
	if fr.ExecTime <= hr.ExecTime {
		t.Errorf("lossy run was not slower: healthy=%g faulted=%g", hr.ExecTime, fr.ExecTime)
	}

	inv := RunSpec{App: "water", Machine: "dash", Procs: 8,
		Fault: &fault.Spec{Seed: 11, InvalidatePct: 0.3}}
	ir, err := inv.Execute(Small)
	if err != nil {
		t.Fatal(err)
	}
	if ir.FaultInvalidations == 0 {
		t.Error("30% invalidation storm invalidated nothing")
	}
}

// The delivery-count histogram surfaces through the observer snapshot
// on faulted runs only.
func TestDeliveryAttemptsSurfaced(t *testing.T) {
	s := RunSpec{App: "water", Machine: "ipsc", Procs: 8, Observe: true,
		Fault: &fault.Spec{Seed: 8, DropPct: 0.3}}
	r, err := s.Execute(Small)
	if err != nil {
		t.Fatal(err)
	}
	rep := r.Report()
	if rep.Observability == nil || rep.Observability.DeliveryAttempts == nil {
		t.Fatal("faulted observed run has no delivery_attempts summary")
	}
	da := rep.Observability.DeliveryAttempts
	if da.Count == 0 || da.MaxSec < 2 {
		t.Errorf("delivery attempts look wrong: count=%d max=%g (want some multi-attempt deliveries)", da.Count, da.MaxSec)
	}
}

// A coalesced batch travels as one message, so fault injection must
// treat it as one unit: a pinned seed reproduces the run byte for byte,
// a drop loses the whole batch, and the retransmit protocol resends all
// of it — batches never fragment into per-object messages under loss.
func TestFaultedCoalescingDeterministicWholeBatch(t *testing.T) {
	coal := RunSpec{App: "spmv", Machine: "ipsc", Procs: 8, Level: LevelLocality,
		Coalescing: true, Fault: &fault.Spec{Seed: 42, DropPct: 0.15}}
	if a, b := reportJSON(t, coal), reportJSON(t, coal); !bytes.Equal(a, b) {
		t.Fatal("two faulted coalescing runs with one seed differ")
	}

	faulted, err := coal.Execute(Small)
	if err != nil {
		t.Fatal(err)
	}
	if faulted.MsgDropped == 0 {
		t.Fatal("15% drop rate lost nothing")
	}
	// Every lost transmission is answered by exactly one retransmission
	// of the same (whole) payload.
	if faulted.MsgDropped != faulted.MsgRetransmits {
		t.Errorf("dropped=%d retransmits=%d: lost batches not resent one-for-one",
			faulted.MsgDropped, faulted.MsgRetransmits)
	}
	// Batches survive loss intact: fragmentation into per-object
	// messages would zero the coalescing counter.
	if faulted.MsgsCoalesced == 0 {
		t.Fatal("faulted SpMV run coalesced nothing: batches fragmented under loss")
	}
	// And coalescing still wins under the identical fault spec: fewer
	// messages than the uncoalesced faulted run.
	uncoal := coal
	uncoal.Coalescing = false
	ur, err := uncoal.Execute(Small)
	if err != nil {
		t.Fatal(err)
	}
	if faulted.MsgCount >= ur.MsgCount {
		t.Errorf("coalesced faulted run sent %d msgs, uncoalesced sent %d: no win under loss",
			faulted.MsgCount, ur.MsgCount)
	}
}

// The panic chaos hook fires before any machine is built, and a sweep
// does not absorb it: ExecuteRuns re-raises a panicking cell on its
// caller exactly as Execute does (isolation is the caller's job).
func TestFaultPanicHook(t *testing.T) {
	s := RunSpec{App: "water", Machine: "ipsc", WorkFree: true, Fault: &fault.Spec{Seed: 1, Panic: true}}
	healthy := RunSpec{App: "water", Machine: "ipsc", WorkFree: true}
	for name, run := range map[string]func(){
		"Execute":     func() { _, _ = s.Execute(Small) },
		"ExecuteRuns": func() { _, _ = NewRunner(2).ExecuteRuns([]RunSpec{healthy, s, healthy}, Small) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				rec := recover()
				if rec == nil {
					t.Fatal("panic spec did not panic")
				}
				if !strings.Contains(fmt.Sprint(rec), "injected panic") {
					t.Errorf("unexpected panic value: %v", rec)
				}
			}()
			run()
		})
	}
}

// The fault sweep experiment must be registered and runnable.
func TestFaultSweepRegistered(t *testing.T) {
	res, err := Run("fault-sweep", Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 || len(res.Head) != len(faultDropRates)+1 {
		t.Errorf("unexpected sweep shape: %d rows, %d cols", len(res.Rows), len(res.Head))
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "retransmits") {
		t.Error("sweep notes do not mention retransmits")
	}
}
