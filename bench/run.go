package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// runConfig is what one workload process is asked to do.
type runConfig struct {
	workload string
	seed     int64
	// The timed phase ends when both seconds have passed and minOps
	// ops have run; ops > 0 replaces both with an exact op count.
	seconds   float64
	ops       int
	trace     bool
	setupOnly bool
	traceOut  string
}

// minOps keeps a percentile's tail populated on a machine slow enough
// that --seconds alone would leave fewer than minTail samples beyond
// the 90th percentile.
const minOps = 110

// result is what a workload process reports: the op counts and every
// metric it measured, by name.
type result struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Trace      bool               `json:"trace"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Metrics    map[string]float64 `json:"metrics"`
	// Errors holds the first few failures, for the reader of a red run.
	Errors []string `json:"errors,omitempty"`
}

const maxReportedErrors = 5

func (r *result) fail(err error) {
	r.Failed++
	if len(r.Errors) < maxReportedErrors {
		r.Errors = append(r.Errors, err.Error())
	}
}

// setupWorkload builds the named workload's untraced instance.
func setupWorkload(name string, seed int64) (*instance, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	switch name {
	case wPaperTables:
		inst, _, err := setupPaperTables(g)
		return inst, err
	case wWorkfreeSweep:
		inst, _, err := setupWorkfreeSweep(g)
		return inst, err
	case wServeHot, wServeCold:
		run, err := setupServing(name, g, seed, nil)
		if err != nil {
			return nil, err
		}
		return run.instance(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %v)", name, workloadNames)
}

// phase is the outcome of one timed closed loop.
type phase struct {
	lat       []*samples // per client
	wall      time.Duration
	attempted int
	mem       memDelta
}

// drive runs the instance's closed loop: every client issues ops back
// to back until the run is long enough. Failures are recorded on res.
func drive(inst *instance, cfg runConfig, res *result) phase {
	ph := phase{lat: make([]*samples, inst.clients)}
	var (
		issued atomic.Int64
		mu     sync.Mutex
		wg     sync.WaitGroup
	)
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	more := func() bool {
		n := issued.Add(1)
		if cfg.ops > 0 {
			return n <= int64(cfg.ops)
		}
		return n <= minOps || time.Now().Before(deadline)
	}
	for c := 0; c < inst.clients; c++ {
		ph.lat[c] = &samples{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for more() {
				d, err := inst.op(c)
				ph.lat[c].add(d)
				if err != nil {
					mu.Lock()
					res.fail(err)
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.mem = memSince(&before)
	for _, s := range ph.lat {
		for _, c := range s.chunks {
			ph.attempted += len(c)
		}
	}
	res.Attempted += ph.attempted
	return ph
}

// runWorkload is the body of a workload process: set up, then either
// stop (setupOnly), measure end to end, or run the traced suite.
func runWorkload(cfg runConfig) (*result, error) {
	runtime.GOMAXPROCS(benchProcs())
	res := &result{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		GOMAXPROCS: benchProcs(), Metrics: map[string]float64{},
	}
	if cfg.trace {
		return res, runTraced(cfg, res)
	}
	inst, err := setupWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
	}
	defer inst.close()
	res.Metrics["setup_s"] = time.Since(processStart).Seconds()
	if cfg.setupOnly {
		return res, nil
	}
	rss, err := startRSSSampler()
	if err != nil {
		return nil, err
	}
	ph := drive(inst, cfg, res)
	if p90, ok := percentile(rss.finish(), 0.90); ok {
		res.Metrics["rss_mb_p90"] = p90
	}
	ops := float64(ph.attempted)
	lat := sortedMS(ph.lat...)
	if p50, ok := percentile(lat, 0.50); ok {
		res.Metrics["op_ms_p50"] = p50
	}
	if p90, ok := percentile(lat, 0.90); ok {
		res.Metrics["op_ms_p90"] = p90
	}
	res.Metrics["ops_per_s"] = ops / ph.wall.Seconds()
	res.Metrics["allocs_per_op"] = float64(ph.mem.mallocs) / ops
	res.Metrics["alloc_kb_per_op"] = float64(ph.mem.bytes) / 1024 / ops
	res.Metrics["failed_frac"] = float64(res.Failed) / ops
	peak, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	res.Metrics["peak_rss_mb"] = peak
	return res, nil
}
