package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// The simulated machines are single-goroutine deterministic state
// machines, and every RunSpec / table cell builds its own machine and
// runtime — so independent runs are embarrassingly parallel. The
// runner here fans that work out across a bounded pool while keeping
// every output byte-identical to serial execution: workers write
// results into pre-indexed slots, so assembly order never depends on
// completion order.

// parWidth holds the package-wide fan-out width; 0 selects
// GOMAXPROCS. cmd/jadebench's -parallel flag and the jaded server
// config set it once at startup.
var parWidth atomic.Int32

// SetParallelism sets the fan-out width for independent simulation
// runs. n <= 0 restores the default of GOMAXPROCS; n == 1 forces
// serial execution.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parWidth.Store(int32(n))
}

// Parallelism reports the current fan-out width.
func Parallelism() int {
	if n := parWidth.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// Runner executes independent pieces of work across a bounded worker
// pool. The zero value runs at the package parallelism; NewRunner
// pins an explicit width.
type Runner struct {
	workers int
}

// NewRunner returns a runner with the given pool width; workers <= 0
// selects the package parallelism (default GOMAXPROCS).
func NewRunner(workers int) Runner { return Runner{workers: workers} }

// Workers reports the effective pool width.
func (r Runner) Workers() int {
	if r.workers > 0 {
		return r.workers
	}
	return Parallelism()
}

// Each runs fn(i) for every i in [0, n) across at most Workers()
// goroutines and returns when all calls have finished. fn must write
// its result into a pre-indexed slot: slot assembly after Each is what
// keeps parallel output byte-identical to serial. A panic in any call
// is re-raised on the caller's goroutine.
func (r Runner) Each(n int, fn func(i int)) {
	w := r.Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  any
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					panicOnce.Do(func() { panicked = rec })
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// executeAll canonicalizes a copy of every spec, then runs the valid
// ones across the pool into pre-indexed slots. The first error by spec
// index (not completion order) is returned, which keeps failures
// deterministic. Only Canonicalize produces errors: a panic while a cell
// executes (a machine bug, Fault.Panic) is not converted into one but
// re-raised on the caller by Each, as Execute on that spec alone would.
func (r Runner) executeAll(specs []RunSpec, scale Scale) ([]RunSpec, []*metrics.Run, error) {
	canon := append([]RunSpec(nil), specs...)
	errs := make([]error, len(canon))
	for i := range canon {
		errs[i] = canon[i].Canonicalize()
	}
	runs := make([]*metrics.Run, len(canon))
	r.Each(len(canon), func(i int) {
		if errs[i] == nil {
			runs[i] = canon[i].execute(scale)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return canon, runs, nil
}

// ExecuteRuns executes every spec at the given scale across the pool
// and returns bare runs in spec order, byte-identical to calling
// Execute per spec — including that a panicking cell panics the call;
// callers that need isolation recover around it, as serve does per job.
func (r Runner) ExecuteRuns(specs []RunSpec, scale Scale) ([]*metrics.Run, error) {
	_, runs, err := r.executeAll(specs, scale)
	return runs, err
}

// ExecuteSpecs is ExecuteRuns with each run wrapped in the jadebench/v1
// runs[] entry shape.
func (r Runner) ExecuteSpecs(specs []RunSpec, scale Scale) ([]InstrumentedRun, error) {
	canon, res, err := r.executeAll(specs, scale)
	if err != nil {
		return nil, err
	}
	runs := make([]InstrumentedRun, len(canon))
	for i := range canon {
		runs[i] = canon[i].instrumented(res[i])
	}
	return runs, nil
}

// each is the package-width fan-out the experiment drivers use for
// their sweep loops.
func each(n int, fn func(i int)) { Runner{}.Each(n, fn) }

// parSweep fills one processor-sweep row concurrently: fn receives
// the sweep index and the processor count at that index.
func parSweep(fn func(i, procs int) float64) []float64 {
	vals := make([]float64, len(Procs))
	each(len(Procs), func(i int) { vals[i] = fn(i, Procs[i]) })
	return vals
}

// parGrid evaluates fn over a rows x len(Procs) grid concurrently,
// flattening both dimensions into one fan-out so narrow sweeps still
// fill the pool.
func parGrid(rows int, fn func(r, i, procs int) float64) [][]float64 {
	grid := make([][]float64, rows)
	for r := range grid {
		grid[r] = make([]float64, len(Procs))
	}
	each(rows*len(Procs), func(k int) {
		r, i := k/len(Procs), k%len(Procs)
		grid[r][i] = fn(r, i, Procs[i])
	})
	return grid
}
