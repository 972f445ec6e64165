package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// The traced suite. A traced run measures every layer the same way
// whichever workload it was asked for: it runs a traced slice of each
// of the four workloads, then the synthetic probes. The slice of the
// run's own workload lasts --seconds; the other three run a small
// fixed number of ops, enough for a reading. Each per-layer metric is
// taken from the one slice that engages its layer (its "home", listed
// in README.md), so a workload's traced run gives its own layers their
// most precise numbers and still reports all the others.

// tracedEnv is what the slices share.
type tracedEnv struct {
	g   *goldenFile
	cfg runConfig
	res *result
	// recs holds one recorder per slice, in workload order; span parent
	// indices are relative to the slice's own list.
	recs map[string]*recorder
}

func (e *tracedEnv) set(name string, v float64) { e.res.Metrics[name] = v }

func (e *tracedEnv) home(w string) bool { return e.cfg.workload == w }

func (e *tracedEnv) recorder(w string) *recorder {
	r := newRecorder()
	e.recs[w] = r
	return r
}

// check counts one op of a slice and records its failure, if any.
func (e *tracedEnv) check(err error) {
	e.res.Attempted++
	if err != nil {
		e.res.fail(err)
	}
}

// budget says how long a slice's loop runs.
type budget struct {
	seconds float64
	ops     int // > 0: exactly this many iterations
}

// budget gives the home workload the run's own length and every other
// slice shortOps iterations.
func (e *tracedEnv) budget(w string, shortOps int) budget {
	if e.home(w) {
		return budget{e.cfg.seconds, e.cfg.ops}
	}
	return budget{ops: shortOps}
}

// minTimedIters keeps a timed slice from ending on one or two
// iterations when an iteration is long.
const minTimedIters = 5

func (b budget) iterate(fn func(i int) error) error {
	start := time.Now()
	for i := 0; ; i++ {
		if b.ops > 0 {
			if i >= b.ops {
				return nil
			}
		} else if i >= minTimedIters && time.Since(start).Seconds() >= b.seconds {
			return nil
		}
		if err := fn(i); err != nil {
			return err
		}
	}
}

// processCPU is the CPU time the process has used, user and system,
// on all threads. The kernel keeps the sum exact even where it
// estimates the split.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layerMedians returns, per span name, the self time spent under that
// name in one op — the median over the ops recorded — in milliseconds.
func layerMedians(spans []span) map[string]float64 {
	self := selfTimes(spans)
	opIndex := map[int32]int{}
	for _, s := range spans {
		if _, ok := opIndex[s.Op]; !ok {
			opIndex[s.Op] = len(opIndex)
		}
	}
	perOp := map[string][]float64{}
	for i, s := range spans {
		v := perOp[s.Name]
		if v == nil {
			v = make([]float64, len(opIndex))
			perOp[s.Name] = v
		}
		v[opIndex[s.Op]] += float64(self[i]) / 1e6
	}
	out := map[string]float64{}
	for name, v := range perOp {
		out[name] = median(v)
	}
	return out
}

// setTraceMetrics reports what the run's own slice says about tracing
// itself: the traced op, what tracing added to it, and how much of it
// the layers' self times account for.
func (e *tracedEnv) setTraceMetrics(tracedMS, untracedMS, glueMS float64) {
	e.set("trace.op_ms_p50", tracedMS)
	e.set("trace.overhead_frac", tracedMS/untracedMS-1)
	e.set("trace.accounted_frac", 1-glueMS/tracedMS)
}

// setGoMetrics reports the Go runtime's work under the run's own
// slice.
func (e *tracedEnv) setGoMetrics(mem memDelta) {
	e.set("go.gc_cycles", float64(mem.gcCycles))
	e.set("go.gc_pause_ms", ms(mem.gcPause))
	e.set("go.heap_peak_mb", mem.heapSysMiB)
}

// runTraced runs the suite and fills res with every per-layer metric.
func runTraced(cfg runConfig, res *result) error {
	g, err := loadGolden()
	if err != nil {
		return err
	}
	slices := map[string]func(*tracedEnv) error{
		wPaperTables:   tracedPaperTables,
		wWorkfreeSweep: tracedWorkfreeSweep,
		wServeHot:      func(e *tracedEnv) error { return tracedServing(e, wServeHot) },
		wServeCold:     func(e *tracedEnv) error { return tracedServing(e, wServeCold) },
	}
	if slices[cfg.workload] == nil {
		return fmt.Errorf("unknown workload %q (valid: %v)", cfg.workload, workloadNames)
	}
	e := &tracedEnv{g: g, cfg: cfg, res: res, recs: map[string]*recorder{}}
	// The run's own workload goes first, in a process nothing else has
	// warmed or fragmented yet.
	order := append([]string{cfg.workload}, workloadNames...)
	for i, w := range order {
		if i > 0 && w == cfg.workload {
			continue
		}
		if err := slices[w](e); err != nil {
			return fmt.Errorf("traced %s: %w", w, err)
		}
		runtime.GC()
	}
	if err := runProbes(e); err != nil {
		return err
	}
	if cfg.traceOut != "" {
		return writeSpans(cfg.traceOut, e.recs)
	}
	return nil
}

// sortedCopy returns vals ascending, for percentile.
func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}
