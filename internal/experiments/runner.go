package experiments

import (
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// The simulated machines are single-goroutine deterministic state
// machines, and every RunSpec replays onto a fresh or reset machine of
// its worker's own — so independent runs are embarrassingly parallel.
// The runner fans that work out across a bounded pool while keeping
// every output byte-identical to serial execution: workers write
// results into pre-indexed slots, so assembly order never depends on
// completion order.

// Runner executes independent pieces of work across a bounded worker
// pool. The zero value runs GOMAXPROCS wide; NewRunner pins a width.
type Runner struct {
	workers int
}

// NewRunner returns a runner with the given pool width; workers <= 0
// selects GOMAXPROCS and 1 forces serial execution.
func NewRunner(workers int) Runner { return Runner{workers: workers} }

// Workers reports the effective pool width.
func (r Runner) Workers() int {
	if r.workers > 0 {
		return r.workers
	}
	return runtime.GOMAXPROCS(0)
}

// Each runs fn(i) for every i in [0, n) across at most Workers()
// goroutines and returns when all calls have finished. fn must write
// its result into a pre-indexed slot: slot assembly after Each is what
// keeps parallel output byte-identical to serial. A panic in any call
// is re-raised on the caller's goroutine.
func (r Runner) Each(n int, fn func(i int)) {
	r.each(n, func(_, i int) { fn(i) })
}

// width is how many workers each starts for n calls.
func (r Runner) width(n int) int { return min(r.Workers(), n) }

// each is Each with the worker: fn(w, i) runs on worker w in
// [0, width(n)), and one worker's calls never overlap, so fn may keep
// per-worker state indexed by w.
func (r Runner) each(n int, fn func(w, i int)) {
	w := r.width(n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
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
				fn(g, i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// plan is the work of one Execute call: every cell the requested
// experiments read plus every explicit spec, canonicalized and
// deduplicated by canonical JSON, so a run several views share executes
// once. The scope is the call; nothing is remembered across calls.
type plan struct {
	exps      []*Experiment
	cells     []RunSpec // distinct canonical cells, in first-request order
	expSlots  [][]int   // expSlots[e][i] indexes cells: exps[e]'s i-th cell
	specSlots []int     // specSlots[j] indexes cells: explicit spec j
}

// newPlan resolves the ids and canonicalizes every cell without
// executing anything. The first error by position — ids, then specs —
// is returned.
func newPlan(ids []string, specs []RunSpec, scale Scale) (*plan, error) {
	p := &plan{}
	slot := map[string]int{}
	add := func(s RunSpec) (int, error) {
		if err := s.Canonicalize(); err != nil {
			return 0, err
		}
		key, _ := json.Marshal(s) // a RunSpec always marshals
		i, ok := slot[string(key)]
		if !ok {
			i = len(p.cells)
			slot[string(key)] = i
			p.cells = append(p.cells, s)
		}
		return i, nil
	}
	for _, id := range ids {
		e, err := Get(id)
		if err != nil {
			return nil, err
		}
		p.exps = append(p.exps, e)
	}
	for _, e := range p.exps {
		var slots []int
		if e.cells != nil {
			for _, s := range e.cells(scale) {
				i, err := add(s)
				if err != nil {
					panic(fmt.Sprintf("experiments: %s built an invalid cell: %v", e.ID, err))
				}
				slots = append(slots, i)
			}
		}
		p.expSlots = append(p.expSlots, slots)
	}
	for _, s := range specs {
		i, err := add(s)
		if err != nil {
			return nil, err
		}
		p.specSlots = append(p.specSlots, i)
	}
	return p, nil
}

// Execute is the one way this package executes runs. It plans the
// union of the experiments' cells and the explicit specs, runs every
// distinct cell once in a single fan-out across the pool, then renders
// each experiment from its runs. results[i] is experiment ids[i] and
// runs[j] is the run of specs[j]; views that share a cell share its
// *metrics.Run, which is read-only. Bespoke experiments, whose machines
// no RunSpec describes, run after the fan-out on the same pool. A
// panicking cell panics the call; serve recovers per job.
func (r Runner) Execute(ids []string, specs []RunSpec, scale Scale) (results []*Result, runs []*metrics.Run, err error) {
	p, err := newPlan(ids, specs, scale)
	if err != nil {
		return nil, nil, err
	}
	results, runs = r.execute(p, scale)
	return results, runs, nil
}

// execute runs a plan: one fan-out over its distinct cells, then each
// experiment in request order. Each worker replays its cells onto
// machines from a free list of its own, taken from machinePool for
// the fan-out and given back after it, so a call builds a machine only
// when no earlier call left one of that kind, and resets it between
// cells. A list is never shared by two workers at once, and which
// machine a cell gets leaks into no output (a reset machine behaves
// exactly like a new one). A worker whose cell panicked drops its
// list. Cells start in order of decreasing processor count, so a
// reused machine reaches its largest size on its first cell instead of
// growing with every step of a sweep.
func (r Runner) execute(p *plan, scale Scale) ([]*Result, []*metrics.Run) {
	all := make([]*metrics.Run, len(p.cells))
	free := make([]*machines, r.width(len(all)))
	for w := range free {
		free[w] = machinePool.Get().(*machines)
	}
	defer func() {
		for _, f := range free {
			if f != nil {
				machinePool.Put(f)
			}
		}
	}()
	order := make([]int, len(all))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return p.cells[b].Procs - p.cells[a].Procs })
	r.each(len(all), func(w, k int) {
		i := order[k]
		// Unset while the cell runs: if it panics, the list is dropped.
		f := free[w]
		free[w] = nil
		all[i] = p.cells[i].execute(scale, f, nil)
		free[w] = f
	})
	results := make([]*Result, len(p.exps))
	for k, e := range p.exps {
		if e.cells == nil {
			results[k] = e.drive(r, scale)
		} else {
			results[k] = e.render(scale, pick(all, p.expSlots[k]))
		}
	}
	return results, pick(all, p.specSlots)
}

// pick gathers the runs at the given plan slots.
func pick(all []*metrics.Run, slots []int) []*metrics.Run {
	runs := make([]*metrics.Run, len(slots))
	for i, s := range slots {
		runs[i] = all[s]
	}
	return runs
}

// ExecuteRuns executes the specs at the given scale and returns their
// runs in spec order; identical specs share one run.
func (r Runner) ExecuteRuns(specs []RunSpec, scale Scale) ([]*metrics.Run, error) {
	_, runs, err := r.Execute(nil, specs, scale)
	return runs, err
}
