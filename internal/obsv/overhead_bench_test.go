package obsv_test

// Benchmarks guarding the cost of the observability layer on a full
// simulator run (Ocean on the message-passing model). The Off variant
// exercises exactly what every ordinary run pays — nil-sink checks on
// the instrumentation points — and must stay within noise
// (<2%) of the pre-instrumentation simulator. The On variant bounds
// the cost of collection itself.
//
//	go test -bench=BenchmarkSimulator -benchmem ./internal/obsv/

import (
	"testing"

	"repro/internal/apps/ocean"
	"repro/internal/ipsc"
	"repro/internal/jade"
	"repro/internal/obsv"
	"repro/internal/trace"
)

const benchProcs = 8

func runOceanIpsc(sink obsv.Sink) float64 {
	m := ipsc.New(ipsc.DefaultConfig(benchProcs, ipsc.Locality))
	m.Sink = sink
	rt := jade.New(m, jade.Config{})
	cfg := ocean.Small()
	ocean.Run(rt, cfg)
	return rt.Finish().ExecTime
}

func BenchmarkSimulatorObsvOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if runOceanIpsc(nil) <= 0 {
			b.Fatal("run produced no virtual time")
		}
	}
}

func BenchmarkSimulatorObsvOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		obs := obsv.New(benchProcs)
		if runOceanIpsc(obs) <= 0 {
			b.Fatal("run produced no virtual time")
		}
		if snap := obs.Snapshot(0); snap.FetchLatency.Count == 0 {
			b.Fatal("observer collected nothing")
		}
	}
}

// TestObserverDoesNotPerturbSimulation pins the core soundness
// property: attaching the event stream's consumers must not change the
// simulated schedule. Virtual time with and without them must match
// exactly.
func TestObserverDoesNotPerturbSimulation(t *testing.T) {
	off := runOceanIpsc(nil)
	on := runOceanIpsc(obsv.Tee{obsv.New(benchProcs), trace.New()})
	if off != on {
		t.Fatalf("observer changed virtual time: off=%.12f on=%.12f", off, on)
	}
}
