// Command jadeload replays a deterministic workload against
// in-process jaded topologies and reports a jade-load/v1 document on
// stdout: latency percentiles, cache hit rate, hedge/failover
// counters, and per-backend health — for a single node and for an
// N-node routed cluster, from the same seed.
//
// Usage:
//
//	jadeload [-backends 3] [-requests 200] [-concurrency 8] [-sync 0.8]
//	         [-zipf 1.2] [-seed 1] [-burst 0] [-kill mode@N[:backend]]...
//	         [-experiments table1,table2] [-scale small] [-single-only]
//	         [-workers 2] [-queue 32] [-hedge-after 25ms]
//	         [-probe-interval 50ms] [-request-timeout 10s]
//
// The -kill flag (repeatable) takes one backend out mid-run:
// "hang@50" hangs a backend just before request #50, "down@50:jaded-1"
// downs a named one. With no backend named, the victim is the backend
// that is primary for the hottest key in the mix — the worst case for
// the routing tier, and the scenario the chaos smoke in ci.sh pins:
// hedges must win against the hung node, passive failures must eject
// it, and cached keys must keep answering without a single non-stale
// 5xx.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/load"
	"repro/internal/router"
	"repro/internal/serve"
)

// killFlags accumulates repeated -kill values.
type killFlags []load.KillEvent

func (k *killFlags) String() string { return fmt.Sprint(*k) }

func (k *killFlags) Set(v string) error {
	// mode@N or mode@N:backend
	mode, rest, ok := strings.Cut(v, "@")
	if !ok {
		return fmt.Errorf("kill %q: want mode@request[:backend]", v)
	}
	at, backend, _ := strings.Cut(rest, ":")
	n, err := strconv.Atoi(at)
	if err != nil || n < 0 {
		return fmt.Errorf("kill %q: bad request index %q", v, at)
	}
	*k = append(*k, load.KillEvent{AfterRequest: n, Backend: backend, Mode: mode})
	return nil
}

func main() {
	var kills killFlags
	var (
		backends    = flag.Int("backends", 3, "topology size for the multi-node run")
		requests    = flag.Int("requests", 200, "total requests per topology")
		concurrency = flag.Int("concurrency", 8, "concurrent client workers")
		syncFrac    = flag.Float64("sync", 0.8, "fraction of requests submitted synchronously")
		zipfS       = flag.Float64("zipf", 1.2, "Zipf skew over the spec pool (> 1)")
		seed        = flag.Int64("seed", 1, "workload seed (same seed, same request mix)")
		burst       = flag.Int("burst", 0, "release requests in bursts of this size, 5ms apart (0 = continuous)")
		expList     = flag.String("experiments", "", "comma-separated experiment IDs for the spec pool (empty = full default mix)")
		scaleFlag   = flag.String("scale", "small", "workload scale for the spec pool")
		singleOnly  = flag.Bool("single-only", false, "run only the -backends topology, skip the 1-node baseline")

		workers  = flag.Int("workers", 2, "workers per backend")
		queueCap = flag.Int("queue", 32, "queue capacity per backend")

		hedgeAfter    = flag.Duration("hedge-after", 25*time.Millisecond, "hedge delay before latency history exists")
		probeInterval = flag.Duration("probe-interval", 50*time.Millisecond, "active health-probe cadence (negative disables)")
		probeTimeout  = flag.Duration("probe-timeout", time.Second, "per-probe timeout (a hung backend fails probes this fast)")
		fall          = flag.Int("fall", 3, "consecutive failures that eject a backend")
		reqTimeout    = flag.Duration("request-timeout", 10*time.Second, "end-to-end routed request timeout")
	)
	flag.Var(&kills, "kill", "kill event mode@request[:backend], repeatable (modes: hang, down)")
	flag.Parse()

	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		fatal(err)
	}
	var specs []*serve.JobSpec
	if *expList != "" {
		ids := strings.Split(*expList, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
		if specs, err = load.ExperimentSpecs(scale, ids...); err != nil {
			fatal(err)
		}
	} else {
		if specs, err = load.DefaultSpecs(scale); err != nil {
			fatal(err)
		}
	}

	cfg := load.Config{
		Backends:     *backends,
		Requests:     *requests,
		Concurrency:  *concurrency,
		SyncFraction: *syncFrac,
		ZipfS:        *zipfS,
		Seed:         *seed,
		BurstSize:    *burst,
		Kills:        kills,
		Specs:        specs,
		Router: router.Config{
			HedgeAfter:     *hedgeAfter,
			RequestTimeout: *reqTimeout,
			Health: router.HealthConfig{
				ProbeInterval: *probeInterval,
				ProbeTimeout:  *probeTimeout,
				FallThreshold: *fall,
			},
		},
		Server: serve.Config{Workers: *workers, QueueCap: *queueCap},
	}

	var out any
	if *singleOnly {
		tr, err := load.Run(cfg)
		if err != nil {
			fatal(err)
		}
		out = &load.Report{Schema: load.Schema, Workload: load.Workload{
			Requests: cfg.Requests, Concurrency: cfg.Concurrency, SyncFraction: cfg.SyncFraction,
			ZipfS: cfg.ZipfS, Seed: cfg.Seed, SpecPool: len(cfg.Specs), BurstSize: cfg.BurstSize, Kills: cfg.Kills,
		}, Topologies: []load.TopologyReport{*tr}}
	} else {
		rep, err := load.RunComparison(cfg)
		if err != nil {
			fatal(err)
		}
		out = rep
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "jadeload: %v\n", err)
	os.Exit(1)
}
