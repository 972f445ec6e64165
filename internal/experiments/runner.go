package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
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

// each runs fn(i) for every i in [0, n) across at most Workers()
// goroutines and returns when all calls have finished. fn must write
// its result into a pre-indexed slot: slot assembly after each is what
// keeps parallel output byte-identical to serial. A panic in any call
// is re-raised on the caller's goroutine.
func (r Runner) each(n int, fn func(i int)) {
	w := min(r.Workers(), n)
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

// plan is the work of one Execute call: every cell the requested
// experiments read plus every explicit spec, canonicalized and
// deduplicated by planKey, so a run several views share executes once.
// The scope is the call; nothing is remembered across calls.
type plan struct {
	exps      []*Experiment
	cells     []RunSpec // distinct canonical cells, in first-request order
	expSlots  [][]int   // expSlots[e][i] indexes cells: exps[e]'s i-th cell
	specSlots []int     // specSlots[j] indexes cells: explicit spec j
}

// planKey is a canonical RunSpec as a small comparable value: its
// names, numbers and flags, with each optional bool by value, its fault
// block numbered among the plan's distinct blocks (0 for none), and its
// variant. Two canonical specs of one plan share a key exactly when
// they marshal to the same JSON and have the same variant
// (TestPlanKeyCoversEverySpecField). The key stays under the 128 bytes
// a map stores inline, so building and inserting one allocates nothing.
type planKey struct {
	app, machine, level                             string
	procs, targetTasks                              int32
	workFree, observe, eagerUpdate, stickyTarget    bool
	speedAware, fusion, coalescing                  bool
	adaptiveBroadcast, concurrentFetch, aggregation optBool
	variant                                         variantID
	fault                                           int32
}

// optBool is an optional bool by value: unset, false or true.
type optBool uint8

func optOf(b *bool) optBool {
	switch {
	case b == nil:
		return 0
	case *b:
		return 2
	}
	return 1
}

// planKey returns the spec's dedup key, numbering its fault block
// among the distinct blocks in faults, which it extends.
func (s *RunSpec) planKey(faults map[fault.Spec]int32) planKey {
	key := planKey{app: s.App, machine: s.Machine, level: s.Level,
		procs: int32(s.Procs), targetTasks: int32(s.TargetTasks),
		workFree: s.WorkFree, observe: s.Observe, eagerUpdate: s.EagerUpdate, stickyTarget: s.StickyTarget,
		speedAware: s.SpeedAware, fusion: s.Fusion, coalescing: s.Coalescing,
		adaptiveBroadcast: optOf(s.AdaptiveBroadcast), concurrentFetch: optOf(s.ConcurrentFetch),
		aggregation: optOf(s.Aggregation), variant: s.variant}
	if s.Fault != nil {
		n, ok := faults[*s.Fault]
		if !ok {
			n = int32(len(faults)) + 1
			faults[*s.Fault] = n
		}
		key.fault = n
	}
	return key
}

// newPlan resolves the ids and canonicalizes every cell without
// executing anything. The first error by position — ids, then specs —
// is returned.
func newPlan(ids []string, specs []RunSpec, scale Scale) (plan, error) {
	var p plan
	for _, id := range ids {
		e, err := Get(id)
		if err != nil {
			return plan{}, err
		}
		p.exps = append(p.exps, e)
	}
	// Every cell is listed before any is added, so the plan's slices
	// and its dedup map are sized once.
	expCells := make([][]RunSpec, len(p.exps))
	n := len(specs)
	for k, e := range p.exps {
		expCells[k] = e.cells(scale)
		n += len(expCells[k])
	}
	p.cells = make([]RunSpec, 0, n)
	p.expSlots = make([][]int, len(p.exps))
	p.specSlots = make([]int, len(specs))
	slot, faults := make(map[planKey]int, n), map[fault.Spec]int32{}
	add := func(s RunSpec) (int, error) {
		if err := s.Canonicalize(); err != nil {
			return 0, err
		}
		key := s.planKey(faults)
		i, ok := slot[key]
		if !ok {
			i = len(p.cells)
			slot[key] = i
			p.cells = append(p.cells, s)
		}
		return i, nil
	}
	for k, cells := range expCells {
		p.expSlots[k] = make([]int, len(cells))
		for j, s := range cells {
			i, err := add(s)
			if err != nil {
				panic(fmt.Sprintf("experiments: %s built an invalid cell: %v", p.exps[k].ID, err))
			}
			p.expSlots[k][j] = i
		}
	}
	for j, s := range specs {
		i, err := add(s)
		if err != nil {
			return plan{}, err
		}
		p.specSlots[j] = i
	}
	return p, nil
}

// Execute is the one way this package executes runs. It plans the
// union of the experiments' cells and the explicit specs, runs every
// distinct cell once in a single fan-out across the pool, then renders
// each experiment from its runs. results[i] is experiment ids[i] and
// runs[j] is the run of specs[j]; views that share a cell share its
// *metrics.Run, which is read-only. Every registered experiment is
// planned, so nothing else in this package builds a machine or replays
// a graph. A panicking cell panics the call; serve recovers per job.
func (r Runner) Execute(ids []string, specs []RunSpec, scale Scale) (results []*Result, runs []*metrics.Run, err error) {
	p, err := newPlan(ids, specs, scale)
	if err != nil {
		return nil, nil, err
	}
	results, runs = r.execute(&p, scale)
	return results, runs, nil
}

// execute runs a plan: one fan-out over its distinct cells, then each
// experiment in request order. Each cell replays onto machines, and
// through a runtime, from a free list taken from machinePool for the
// cell and put back after it, so a call builds a machine only when no
// earlier cell left one of that kind, and resets it between cells. A
// list is held by one goroutine at a time, and which machine a cell
// gets leaks into no output (a reset machine behaves exactly like a
// new one). A cell that panicked drops its list. Cells start in order
// of decreasing processor count, so a reused machine reaches its
// largest size on its first cell instead of growing with every step of
// a sweep.
func (r Runner) execute(p *plan, scale Scale) ([]*Result, []*metrics.Run) {
	cells := p.cells
	all := make([]*metrics.Run, len(cells))
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cells[b].Procs - cells[a].Procs })
	r.each(len(cells), func(k int) {
		i := order[k]
		f := machinePool.Get().(*machines)
		all[i] = cells[i].execute(scale, f, nil)
		machinePool.Put(f)
	})
	results := make([]*Result, len(p.exps))
	for k, e := range p.exps {
		results[k] = e.render(scale, pick(all, p.expSlots[k]))
	}
	if len(p.exps) == 0 && len(p.specSlots) == len(all) {
		// Distinct specs alone: spec j is cell j, so the runs are all.
		return results, all
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
