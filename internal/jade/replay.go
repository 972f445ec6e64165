package jade

import "fmt"

// This file is the runtime half of graph replay. A replay runtime is the
// dependence engine rebuilt from a frozen ReplayPlan: it shares the
// plan's objects, tasks and successor arrays, and owns only a copy of
// the initial pending counts and the entries' done bits, so one plan
// drives any number of runtimes, sequentially or concurrently, and one
// runtime replays any number of plans in turn (ResetReplay).
//
// Why a frozen plan is exact: platforms only complete tasks inside
// Drain, and a replay announces tasks only between Drains, so every
// edge the plan recorded at registration is still live when its source
// completes, exactly as in the run that was captured. Serial phases
// create no entries (they require an empty graph), so they affect the
// plan only through version numbering.

// capacityHinter is an optional platform extension: a replay knows the
// exact object and task counts from its plan, so hinting them lets the
// platform size its dense per-object and per-task structures once
// instead of growing them by appending.
type capacityHinter interface {
	ReserveCapacity(objects, tasks int)
}

// ResetReplay makes rt a runtime that re-issues the planned graph into
// p. rt may be new (a zero Runtime) or one an earlier replay finished
// with: its per-run state — the pending counts, the done bits and the
// enabled-task scratch — is reset in place, so a worker that replays
// cell after cell through one runtime stops allocating once that state
// reaches its largest plan's size. The plan and the platform are never
// copied. The runtime is the caller's: one replay at a time, and no
// platform from an earlier replay may still be driving it.
func (rt *Runtime) ResetReplay(p Platform, cfg Config, plan *ReplayPlan) {
	rt.platform, rt.cfg, rt.plan = p, cfg, plan
	rt.objects = plan.Objects
	rt.sync.resetReplay(plan)
	rt.taskSlab, rt.objSlab = nil, nil
	rt.outstanding.Store(0)
	rt.finished = false
	p.Attach(rt)
	if h, ok := p.(capacityHinter); ok {
		h.ReserveCapacity(len(plan.Objects), len(plan.Tasks))
	}
}

// Plan freezes a finished run's dependence engine into a replay plan
// over objects and tasks, copies of the run's that mirror them ID for
// ID (see Synchronizer.Plan).
func (rt *Runtime) Plan(objects []*Object, tasks []*Task) *ReplayPlan {
	if !rt.finished {
		panic("jade: Plan before Finish")
	}
	return rt.sync.Plan(objects, tasks)
}

// ReplayObject announces the planned object to the platform. The
// replay driver calls it in allocation order.
func (rt *Runtime) ReplayObject(o *Object) {
	rt.platform.ObjectAllocated(o)
}

// ReplayTask announces the planned task to the platform, enabled iff
// its initial pending count is zero: no completion can have run
// between its creation and this call, since completions happen only
// inside Drain.
func (rt *Runtime) ReplayTask(t *Task) {
	rt.outstanding.Add(1)
	rt.platform.TaskCreated(t, rt.plan.InitPending[t.ID] == 0)
}

// ReplaySerial announces a planned serial phase: accs carries the
// versions baked in by the plan, so unlike SerialAccesses nothing is
// mutated here.
func (rt *Runtime) ReplaySerial(work float64, accs []Access) {
	if n := rt.outstanding.Load(); n != 0 {
		panic(fmt.Sprintf("jade: replayed serial phase with %d tasks outstanding", n))
	}
	if len(accs) > 0 {
		rt.platform.MainTouches(accs)
	}
	rt.platform.SerialWork(work)
}
