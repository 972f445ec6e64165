package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/dash"
	"repro/internal/fault"
	"repro/internal/ipsc"
	"repro/internal/jade"
	"repro/internal/metrics"
	"repro/internal/obsv"
	"repro/internal/pgas"
)

// RunSpec is a serializable description of one Jade execution: an
// application, a machine model, a processor count, a locality level,
// and the optimization toggles the paper studies. It is the unit the
// jaded job service runs — everything an experiment driver hard-codes
// is expressible as data here, and a canonical (Canonicalize'd) spec
// always produces the same *metrics.Run on the deterministic machine
// models.
type RunSpec struct {
	// App selects the application: water, string, ocean, cholesky.
	App string `json:"app"`
	// Machine selects the platform model: dash, ipsc, cluster.
	Machine string `json:"machine"`
	// Procs is the processor count (default 8, the midpoint of the
	// paper's sweeps).
	Procs int `json:"procs"`
	// Level is the locality optimization level: none, locality, or
	// placement. Empty selects the highest level the app supports.
	// The cluster model has no levels; the field must stay empty.
	Level string `json:"level,omitempty"`
	// WorkFree prices no task work and no traffic, leaving task
	// management alone (the measurements behind Figures 10/11/20/21).
	WorkFree bool `json:"work_free,omitempty"`
	// Observe attaches the structured observer so the run's report
	// carries per-object stats, latency histograms, and timelines.
	Observe bool `json:"observe,omitempty"`

	// iPSC-only toggles (§3.4, §5.6, §6). Pointer fields distinguish
	// "unset" (keep the paper's baseline) from an explicit false.
	AdaptiveBroadcast *bool `json:"adaptive_broadcast,omitempty"`
	ConcurrentFetch   *bool `json:"concurrent_fetch,omitempty"`
	EagerUpdate       bool  `json:"eager_update,omitempty"`
	StickyTarget      bool  `json:"sticky_target,omitempty"`
	// TargetTasks overrides the scheduler's tasks-per-processor
	// target (latency hiding, §3.4.3); 0 keeps the default of 1.
	TargetTasks int `json:"target_tasks,omitempty"`

	// SpeedAware makes the cluster scheduler hand a task whose target
	// workstation is busy to the fastest idle workstation rather than
	// the lowest-numbered one.
	SpeedAware bool `json:"speed_aware,omitempty"`

	// Aggregation toggles the PGAS machine's software-managed
	// aggregation layer (coalescing a task's remote gets/puts to the
	// same home locale into batched messages). Unset keeps the
	// machine's default (on); pgas-only.
	Aggregation *bool `json:"aggregation,omitempty"`

	// Fusion enables the task-fusion half of the granularity pass:
	// chains of tiny tasks with identical-or-nested access specs in
	// the captured task graph collapse into single scheduled units
	// before replay (internal/fuse defaults). Requires work_free: the
	// pass targets task-management overhead, which is what the
	// work-free run measures. Off by default; the paper has no
	// equivalent pass.
	Fusion bool `json:"fusion,omitempty"`
	// Coalescing batches a task's same-owner object fetches on the
	// iPSC machine into one request/reply message pair (the other
	// half of the granularity pass); ipsc-only — the pgas machine's
	// equivalent knob is aggregation. Off by default.
	Coalescing bool `json:"coalescing,omitempty"`

	// Fault, when present, injects deterministic faults into the run
	// (jade-fault/v1): message loss, degraded links and stragglers on
	// the iPSC model; degraded links, stragglers and victim latency on
	// PGAS; victim latency and invalidation storms on DASH. The same
	// seed always reproduces the same faulted execution. The fields a
	// machine does not model are canonicalized away, and then a block
	// that enables no fault is too, so specs that degrade the machine
	// alike hash alike. The cluster has no fault model and rejects a
	// block that enables one.
	Fault *fault.Spec `json:"fault,omitempty"`

	// variant selects a row of variants (0 for none): a setting of the
	// run that no field above names. encoding/json never sees it, so a
	// job cannot set it and it changes neither canonical JSON nor a
	// job's hash; only the experiments' own cells carry one.
	variant variantID
}

// A runVariant is what an experiment cell can vary that no RunSpec
// JSON field names.
type runVariant struct {
	name          string              // tells the cell apart in listings
	app           *appSpec            // the workload, in place of App's
	locality      jade.LocalityPolicy // the runtime's locality-object policy
	stealFromHead bool                // dash.Machine.StealFromHead
}

// variantID indexes variants.
type variantID uint8

const (
	noVariant variantID = iota
	stealHead
	localityLargest
	localityFirstWrite
	choleskyRCM
	choleskySupernodal
	// granVariant is the granularity program at granSizes[0]; the
	// program at granSizes[i] is granVariant + i.
	granVariant
)

// variants is the table RunSpec.variant indexes, in variantID order.
var variants = func() []runVariant {
	v := []runVariant{
		noVariant:          {},
		stealHead:          {name: "steal-head", stealFromHead: true},
		localityLargest:    {name: "locality-largest", locality: jade.LocalityLargest},
		localityFirstWrite: {name: "locality-first-write", locality: jade.LocalityFirstWrite},
		choleskyRCM: {name: "cholesky-rcm",
			app: newCholeskyApp("Panel Cholesky, RCM ordering", "cholesky-rcm")},
		choleskySupernodal: {name: "cholesky-supernodal",
			app: newCholeskyApp("Panel Cholesky, supernodal panels", "cholesky-supernodal")},
	}
	for _, w := range granSizes {
		a := granApp(w)
		v = append(v, runVariant{name: a.key, app: a})
	}
	return v
}()

// Variant names the spec's variant, "" for none: what sets an
// experiment cell apart from a spec that marshals to the same JSON.
func (s *RunSpec) Variant() string { return variants[s.variant].name }

// app returns the workload the spec runs, its variant's or App's; nil
// when App names none.
func (s *RunSpec) app() *appSpec {
	if a := variants[s.variant].app; a != nil {
		return a
	}
	return appKeys[s.App]
}

// Level names accepted by RunSpec.
const (
	LevelNone      = "none"
	LevelLocality  = "locality"
	LevelPlacement = "placement"
)

// maxSpecProcs bounds the processor count a spec may request; the
// paper sweeps to 32 and the models stay meaningful a factor beyond.
const maxSpecProcs = 64

// appKeys maps spec app names to their drivers. "tomo" is accepted as
// an alias for the String application's package name.
var appKeys = map[string]*appSpec{
	"water":    waterApp,
	"string":   tomoApp,
	"tomo":     tomoApp,
	"ocean":    oceanApp,
	"cholesky": choleskyApp,
	"spmv":     spmvApp,
}

// appKeyNames returns the canonical app names, sorted for error text.
func appKeyNames() string { return "water, string, ocean, cholesky, spmv" }

// ParseScale validates a workload-scale string.
func ParseScale(s string) (Scale, error) {
	switch Scale(s) {
	case Small:
		return Small, nil
	case PaperScale:
		return PaperScale, nil
	}
	return "", fmt.Errorf("unknown scale %q (valid: %s, %s)", s, Small, PaperScale)
}

// Canonicalize validates the spec and rewrites it into canonical form
// (lowercased names, aliases resolved, defaults filled in), so that
// equivalent specs marshal to identical JSON. It must be called
// before Execute; the jaded service hashes the canonical form.
func (s *RunSpec) Canonicalize() error {
	s.App = strings.ToLower(strings.TrimSpace(s.App))
	s.Machine = strings.ToLower(strings.TrimSpace(s.Machine))
	s.Level = strings.ToLower(strings.TrimSpace(s.Level))

	a := s.app()
	if a == nil {
		return fmt.Errorf("run spec: unknown app %q (valid: %s)", s.App, appKeyNames())
	}
	if s.App == "tomo" {
		s.App = "string"
	}
	switch s.Machine {
	case "dash", "ipsc", "cluster", "pgas":
	default:
		return fmt.Errorf("run spec: unknown machine %q (valid: dash, ipsc, cluster, pgas)", s.Machine)
	}
	if s.Procs == 0 {
		s.Procs = instrumentedProcs
	}
	if s.Procs < 1 || s.Procs > maxSpecProcs {
		return fmt.Errorf("run spec: procs %d out of range [1, %d]", s.Procs, maxSpecProcs)
	}

	if s.Machine == "cluster" {
		if s.Level != "" && s.Level != LevelNone {
			return fmt.Errorf("run spec: the cluster machine has no locality levels (got %q)", s.Level)
		}
		s.Level = ""
	} else {
		if s.Level == "" {
			s.Level = LevelLocality
			if a.hasPlacement {
				s.Level = LevelPlacement
			}
		}
		switch s.Level {
		case LevelNone, LevelLocality:
		case LevelPlacement:
			if !a.hasPlacement {
				return fmt.Errorf("run spec: app %q supports no explicit placement (valid levels: %s, %s)",
					s.App, LevelNone, LevelLocality)
			}
		default:
			return fmt.Errorf("run spec: unknown level %q (valid: %s, %s, %s)",
				s.Level, LevelNone, LevelLocality, LevelPlacement)
		}
	}

	if s.Machine != "ipsc" {
		if s.AdaptiveBroadcast != nil || s.ConcurrentFetch != nil || s.EagerUpdate ||
			s.StickyTarget || s.TargetTasks != 0 {
			return fmt.Errorf("run spec: adaptive_broadcast, concurrent_fetch, eager_update, "+
				"sticky_target and target_tasks apply only to the ipsc machine (got %q)", s.Machine)
		}
	}
	if s.TargetTasks < 0 || s.TargetTasks > 16 {
		return fmt.Errorf("run spec: target_tasks %d out of range [0, 16]", s.TargetTasks)
	}
	if s.Machine != "cluster" && s.SpeedAware {
		return fmt.Errorf("run spec: speed_aware applies only to the cluster machine (got %q)", s.Machine)
	}
	if s.Machine != "pgas" && s.Aggregation != nil {
		return fmt.Errorf("run spec: aggregation applies only to the pgas machine (got %q)", s.Machine)
	}
	if s.Fusion && !s.WorkFree && a.fuse == nil {
		return fmt.Errorf("run spec: fusion requires work_free (the pass targets task-management overhead, which work-free runs measure)")
	}
	if s.Coalescing && s.Machine != "ipsc" {
		return fmt.Errorf("run spec: coalescing applies only to the ipsc machine (got %q); "+
			"the pgas equivalent is aggregation", s.Machine)
	}
	if s.Fault != nil {
		if err := s.Fault.Canonicalize(); err != nil {
			return fmt.Errorf("run spec: %w", err)
		}
		if s.Machine == "cluster" && s.Fault.Active() {
			return fmt.Errorf("run spec: the cluster machine has no fault model (got %q)", s.Machine)
		}
		// Specs may share a block, so a restriction that changes it
		// makes a copy.
		if f := s.Fault.Restricted(faultKinds[s.Machine]); f != *s.Fault {
			s.Fault = &f
		}
		if !s.Fault.Active() && !s.Fault.Panic {
			s.Fault = nil // an inert fault block is no fault block
		}
	}
	return nil
}

// faultKinds are the kinds of fault each machine models; the cluster
// models none.
var faultKinds = map[string]fault.Kind{
	"dash": fault.SlowRemote | fault.Invalidation,
	"ipsc": fault.Loss | fault.SlowLinks | fault.Straggling,
	"pgas": fault.SlowLinks | fault.Straggling | fault.SlowRemote,
}

// dashLevel maps a canonical level name to the DASH constant.
func dashLevel(level string) dash.LocalityLevel {
	switch level {
	case LevelNone:
		return dash.NoLocality
	case LevelPlacement:
		return dash.TaskPlacement
	}
	return dash.Locality
}

// ipscLevel maps a canonical level name to the iPSC constant.
func ipscLevel(level string) ipsc.LocalityLevel {
	switch level {
	case LevelNone:
		return ipsc.NoLocality
	case LevelPlacement:
		return ipsc.TaskPlacement
	}
	return ipsc.Locality
}

// pgasLevel maps a canonical level name to the PGAS constant.
func pgasLevel(level string) pgas.LocalityLevel {
	switch level {
	case LevelNone:
		return pgas.NoAffinity
	case LevelPlacement:
		return pgas.TaskPlacement
	}
	return pgas.Affinity
}

// machines is a free list of machines: at most one of each kind,
// taken for a cell and put back when its run is copied out. It also
// holds the per-run state its cells share, each reset in place for
// every cell: the replay runtime (jade.Runtime.ResetReplay) and the
// fault injector (fault.Injector.Reset). A list, with its runtime and
// injector, belongs to one goroutine at a time.
type machines struct {
	dash    *dash.Machine
	ipsc    *ipsc.Machine
	pgas    *pgas.Machine
	cluster *cluster.Machine
	rt      jade.Runtime
	inj     fault.Injector
}

// machinePool keeps free lists between cells and calls, so a server or
// a sweep stops building its machines, runtime and injector anew. A
// pooled machine, runtime or injector is always reset before use and
// holds nothing a run can observe: unlike the graph cache, it is no
// state two callers can see each other through.
var machinePool = sync.Pool{New: func() any { return new(machines) }}

// take empties slot and returns its machine reset to cfg, or a new
// machine built from cfg when the slot is empty.
func take[M interface {
	comparable
	Reset(C)
}, C any](slot *M, cfg C, build func(C) M) M {
	var none M
	m := *slot
	if m == none {
		return build(cfg)
	}
	*slot = none
	m.Reset(cfg)
	return m
}

// put returns a machine taken by newPlatform to the list.
func (f *machines) put(p jade.Platform) {
	switch m := p.(type) {
	case *dash.Machine:
		f.dash = m
	case *ipsc.Machine:
		f.ipsc = m
	case *pgas.Machine:
		f.pgas = m
	case *cluster.Machine:
		f.cluster = m
	}
}

// newPlatform returns a fresh or reset platform for a canonical spec,
// taken from free (nil builds a new one), with fault injection
// attached, and the observer its event stream feeds when the spec
// observes (nil otherwise). The event stream also feeds sink, when
// non-nil (a trace of the run).
func (s *RunSpec) newPlatform(free *machines, sink obsv.Sink) (jade.Platform, *obsv.Observer) {
	if free == nil {
		free = &machines{}
	}
	var inj *fault.Injector
	if s.Fault != nil {
		inj = free.inj.Reset(*s.Fault, s.Procs)
	}
	var obs *obsv.Observer
	if s.Observe {
		obs = obsv.New(s.Procs)
		if sink == nil {
			sink = obs
		} else {
			sink = obsv.Tee{obs, sink}
		}
	}
	// Fault injection and observation live in the machine, not the
	// task graph, so faulted and observed runs replay cached graphs
	// like any other (execute); capture itself always runs clean.
	var p jade.Platform
	switch s.Machine {
	case "dash":
		m := take(&free.dash, dash.DefaultConfig(s.Procs, dashLevel(s.Level)), dash.New)
		m.StealFromHead = variants[s.variant].stealFromHead
		m.Inj = inj
		m.Sink = sink
		p = m
	case "ipsc":
		cfg := ipsc.DefaultConfig(s.Procs, ipscLevel(s.Level))
		if s.AdaptiveBroadcast != nil {
			cfg.AdaptiveBroadcast = *s.AdaptiveBroadcast
		}
		if s.ConcurrentFetch != nil {
			cfg.ConcurrentFetch = *s.ConcurrentFetch
		}
		cfg.EagerUpdate = s.EagerUpdate
		cfg.StickyTarget = s.StickyTarget
		cfg.Coalescing = s.Coalescing
		if s.TargetTasks > 0 {
			cfg.TargetTasks = s.TargetTasks
		}
		m := take(&free.ipsc, cfg, ipsc.New)
		m.Inj = inj
		m.Sink = sink
		p = m
	case "cluster":
		cfg := cluster.DefaultConfig(s.Procs)
		cfg.SpeedAware = s.SpeedAware
		m := take(&free.cluster, cfg, cluster.New)
		m.Sink = sink
		p = m
	case "pgas":
		cfg := pgas.DefaultConfig(s.Procs, pgasLevel(s.Level))
		if s.Aggregation != nil {
			cfg.Aggregation = *s.Aggregation
		}
		m := take(&free.pgas, cfg, pgas.New)
		m.Inj = inj
		m.Sink = sink
		p = m
	}
	return p, obs
}

// Execute canonicalizes a copy of the spec and runs it at the given
// scale. The simulated machines are deterministic: the same canonical
// spec and scale always produce the same Run.
func (s RunSpec) Execute(scale Scale) (*metrics.Run, error) {
	if err := s.Canonicalize(); err != nil {
		return nil, err
	}
	free := machinePool.Get().(*machines)
	r := s.execute(scale, free, nil)
	machinePool.Put(free)
	return r, nil
}

// TraceCell replays the n-th cell experiment id reads at scale, the
// run its table or figure reports, through the same path as
// Runner.Execute, with the sink newSink returns for the cell's
// processor count fed the machine's simulated-event stream. It returns
// the canonical cell, its run, and the tasks the replay scheduled (for
// check.Validate). An n out of range is an error that lists the
// experiment's cells by index, each with its variant.
func TraceCell(id string, n int, scale Scale, newSink func(procs int) obsv.Sink) (RunSpec, *metrics.Run, []*jade.Task, error) {
	e, err := Get(id)
	if err != nil {
		return RunSpec{}, nil, nil, err
	}
	cells := e.cells(scale)
	for i := range cells {
		if err := cells[i].Canonicalize(); err != nil {
			panic(fmt.Sprintf("experiments: %s built an invalid cell: %v", id, err))
		}
	}
	if len(cells) == 0 {
		return RunSpec{}, nil, nil, fmt.Errorf("experiments: %s reads no runs, so it has no cell to trace", id)
	}
	if n < 0 || n >= len(cells) {
		var sb strings.Builder
		fmt.Fprintf(&sb, "experiments: %s has no cell %d; its cells are:", id, n)
		for i, c := range cells {
			key, _ := json.Marshal(c) // a RunSpec always marshals
			fmt.Fprintf(&sb, "\n%4d  %s", i, key)
			if v := c.Variant(); v != "" {
				fmt.Fprintf(&sb, "  [%s]", v)
			}
		}
		return RunSpec{}, nil, nil, errors.New(sb.String())
	}
	cell := cells[n]
	r := cell.execute(scale, nil, newSink(cell.Procs))
	return cell, r, cell.taskGraph(scale).g.Tasks(), nil
}

// taskGraph returns the graph a canonical spec replays: the cached
// capture of its app, or that capture fused.
func (s *RunSpec) taskGraph(scale Scale) fusedEntry {
	a := s.app()
	place := s.Level == LevelPlacement && a.hasPlacement && !a.placed
	if s.Fusion {
		return fusedGraph(a, scale, s.Procs, place)
	}
	return fusedEntry{g: capturedGraph(a, scale, s.Procs, place)}
}

// execute runs an already-canonical spec on a machine from free (nil
// builds a new one and a new runtime), through free's runtime, with
// sink (nil for none) fed its event stream, and puts the machine back
// after the run.
func (s *RunSpec) execute(scale Scale, free *machines, sink obsv.Sink) *metrics.Run {
	if s.Fault != nil && s.Fault.Panic {
		// Chaos hook for the serving stack: a spec can ask its own
		// execution to panic, exercising per-job panic isolation.
		panic(fmt.Sprintf("fault: injected panic (app=%s machine=%s)", s.App, s.Machine))
	}
	if free == nil {
		free = &machines{}
	}
	cfg := jade.Config{WorkFree: s.WorkFree, Locality: variants[s.variant].locality}
	p, obs := s.newPlatform(free, sink)
	fe := s.taskGraph(scale)
	r := replay(fe.g, &free.rt, p, cfg)
	if obs != nil {
		if err := Agree(s.Machine, r, obs); err != nil {
			panic(fmt.Sprintf("experiments: %s/%v", s.App, err))
		}
	}
	if s.Fusion {
		stampFusion(r, s.Machine, fe.st)
	}
	r.Obsv = obs.Snapshot(0)
	// Platforms return a pointer into the machine, which the worker's
	// next cell resets: copy the run out, and hand its one slice over
	// so the machine allocates a new one instead of reusing it.
	detached := *r
	r.ProcBusy = nil
	free.put(p)
	return &detached
}

// Agree returns an error unless a run on machine has two views of its
// traffic that agree exactly: the bytes obs attributes to objects, from
// Fetch and Broadcast events, equal the fold's byte counters, and its
// replicated reads the fold's. Both views come from the same kit fold
// calls (internal/machine), so a difference is a bug.
func Agree(machine string, r *metrics.Run, obs *obsv.Observer) error {
	fold := r.MsgBytes
	if machine == "dash" || machine == "pgas" {
		fold = r.LocalBytes + r.RemoteBytes
	}
	if b, reads := obs.Totals(); b != fold || reads != r.ReplicatedReads {
		return fmt.Errorf("%s: the observer attributes %d bytes and %d replicated reads to objects, "+
			"the run's counters %d and %d", machine, b, reads, fold, r.ReplicatedReads)
	}
	return nil
}

// instrumented wraps a canonical spec's run in its runs[] entry.
func (s *RunSpec) instrumented(r *metrics.Run) InstrumentedRun {
	return InstrumentedRun{
		App: s.App, Machine: s.Machine, Procs: s.Procs,
		Level: s.Level, Fault: s.Fault, Metrics: r.Report(),
	}
}

// DefaultRunSpecs describes the standard observability runs jadebench
// folds into its report: every application on both primary machine
// models at 8 processors, at the highest locality level the app
// supports, with the observer attached — plus the irregular SpMV
// workload on all three machines (dash, ipsc, pgas).
func DefaultRunSpecs() []RunSpec {
	var specs []RunSpec
	for _, a := range allApps {
		level := LevelLocality
		if a.hasPlacement {
			level = LevelPlacement
		}
		for _, machine := range []string{"dash", "ipsc"} {
			specs = append(specs, RunSpec{
				App: a.key, Machine: machine, Procs: instrumentedProcs,
				Level: level, Observe: true,
			})
		}
	}
	for _, machine := range []string{"dash", "ipsc", "pgas"} {
		specs = append(specs, RunSpec{
			App: "spmv", Machine: machine, Procs: instrumentedProcs,
			Level: LevelLocality, Observe: true,
		})
	}
	return specs
}
