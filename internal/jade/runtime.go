package jade

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// Runtime is the platform-independent half of the Jade implementation:
// it owns the shared objects, the task list, and the synchronizer, and
// drives a Platform. One Runtime executes one program once.
//
// Execution contract (matching the paper's model, where the main
// processor creates all tasks): the main program runs serially,
// creating tasks with WithOnly; task bodies execute during Wait, in a
// dependence-respecting order chosen by the platform. The program must
// call Wait before reading or mutating objects accessed by pending
// tasks, and must express the structure of the task graph (which tasks
// access which objects) independently of values computed inside task
// bodies of the same phase.
type Runtime struct {
	platform Platform
	cfg      Config

	objects []*Object
	// mu guards sync against completions on other goroutines (see
	// Locker).
	mu   sync.Mutex
	sync Synchronizer

	// taskSlab and objSlab are chunked arenas for Task and Object
	// values: structs are handed out from fixed-size chunks so each
	// task/object costs an allocation per chunk, not per value. Chunks
	// are never grown in place, so handed-out pointers stay stable.
	taskSlab []Task
	objSlab  []Object

	// plan, when non-nil, makes this a replay runtime (replay.go): the
	// plan supplies every object and task.
	plan *ReplayPlan

	outstanding atomic.Int64
	finished    bool
}

// slabSize is the chunk length of the runtime's Task and Object
// arenas; runs with more values allocate more chunks.
const slabSize = 256

// New creates a runtime bound to the given platform.
func New(p Platform, cfg Config) *Runtime {
	rt := &Runtime{platform: p, cfg: cfg}
	p.Attach(rt)
	return rt
}

// Config returns the runtime configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// Processors returns the platform's processor count.
func (rt *Runtime) Processors() int { return rt.platform.Processors() }

// Alloc creates a shared object of the given size holding data. By
// default the object's home is processor 0 (the main processor, which
// allocates it); use OnProcessor to place it elsewhere, mirroring
// memory-module placement on the real machines.
func (rt *Runtime) Alloc(name string, size int, data interface{}, opts ...AllocOpt) *Object {
	if rt.finished {
		panic("jade: Alloc after Finish")
	}
	if rt.plan != nil {
		panic("jade: Alloc on a replay runtime (objects come from the plan)")
	}
	if len(rt.objSlab) == 0 {
		rt.objSlab = make([]Object, slabSize)
	}
	o := &rt.objSlab[0]
	rt.objSlab = rt.objSlab[1:]
	*o = Object{ID: ObjectID(len(rt.objects)), Name: name, Size: size, Data: data, Home: 0}
	for _, opt := range opts {
		opt(o)
	}
	if o.Home < 0 || o.Home >= rt.platform.Processors() {
		panic(fmt.Sprintf("jade: object %q placed on processor %d of %d", name, o.Home, rt.platform.Processors()))
	}
	rt.objects = append(rt.objects, o)
	rt.platform.ObjectAllocated(o)
	return o
}

// Spec collects a task's access declarations (the paper's access
// specification section).
type Spec struct {
	accs []Access
}

// Rd declares that the task will read o.
func (s *Spec) Rd(o *Object) { s.add(o, Read) }

// Wr declares that the task will write o.
func (s *Spec) Wr(o *Object) { s.add(o, Write) }

// RdWr declares that the task will both read and write o.
func (s *Spec) RdWr(o *Object) { s.add(o, Read|Write) }

func (s *Spec) add(o *Object, m Mode) {
	if o == nil {
		panic("jade: access declared on nil object")
	}
	// Merge duplicate declarations on the same object (the access
	// specification is the union of executed statements).
	for i := range s.accs {
		if s.accs[i].Obj == o {
			s.accs[i].Mode |= m
			return
		}
	}
	s.accs = append(s.accs, Access{Obj: o, Mode: m})
}

// WithOnly creates a task: spec runs immediately to build the access
// specification; body is deferred until the task's dependences are
// satisfied during a later Wait. work is the body's compute cost in
// reference-processor seconds.
func (rt *Runtime) WithOnly(spec func(*Spec), work float64, body func(), opts ...TaskOpt) *Task {
	var s Spec
	spec(&s)
	return rt.WithAccesses(s.accs, work, body, opts...)
}

// WithAccesses creates a task from a pre-built access list, taking
// ownership of accs (RequiredVersion fields are overwritten by the
// synchronizer). It is the closure-free core of WithOnly, for front-ends
// that build access lists themselves; the granularity sweep's synthetic
// program is the one outside this package. Graph replay does not come
// through here: it announces planned tasks with ReplayTask.
func (rt *Runtime) WithAccesses(accs []Access, work float64, body func(), opts ...TaskOpt) *Task {
	return rt.create(accs, work, body, nil, opts)
}

// create builds a task, staged when segs is non-nil, registers it with
// the synchronizer and announces it to the platform.
func (rt *Runtime) create(accs []Access, work float64, body func(), segs []Segment, opts []TaskOpt) *Task {
	if rt.finished {
		panic("jade: WithOnly after Finish")
	}
	if rt.plan != nil {
		panic("jade: task created on a replay runtime (tasks come from the plan)")
	}
	if len(accs) == 0 {
		panic("jade: task declared no accesses")
	}
	if len(rt.taskSlab) == 0 {
		rt.taskSlab = make([]Task, slabSize)
	}
	t := &rt.taskSlab[0]
	rt.taskSlab = rt.taskSlab[1:]
	*t = Task{
		ID:       TaskID(len(rt.sync.tasks)),
		Accesses: accs,
		Body:     body,
		Work:     work,
		Placed:   -1,
		Segments: segs,
	}
	for _, opt := range opts {
		opt(t)
	}
	if t.Placed >= rt.platform.Processors() {
		panic(fmt.Sprintf("jade: task placed on processor %d of %d", t.Placed, rt.platform.Processors()))
	}
	if rt.cfg.WorkFree {
		t.Body = nil
	}
	rt.outstanding.Add(1)
	rt.mu.Lock()
	enabled := rt.sync.Register(t)
	rt.mu.Unlock()
	rt.platform.TaskCreated(t, enabled)
	return t
}

// Serial runs a serial phase on the main processor: body executes
// immediately; work seconds are charged to main. accs (optional)
// declares the shared objects the phase touches, so message-passing
// platforms fetch them to the main processor first. The caller must
// have Wait()ed if pending tasks access those objects.
func (rt *Runtime) Serial(work float64, body func(), spec ...func(*Spec)) {
	var s Spec
	for _, f := range spec {
		f(&s)
	}
	rt.SerialAccesses(work, body, s.accs)
}

// SerialAccesses is the closure-free core of Serial: it runs a serial
// phase whose access list is pre-built, taking ownership of accs. Its
// one caller outside this package is the granularity sweep's synthetic
// program; graph replay uses ReplaySerial.
func (rt *Runtime) SerialAccesses(work float64, body func(), accs []Access) {
	if rt.plan != nil {
		panic("jade: SerialAccesses on a replay runtime (use ReplaySerial)")
	}
	if rt.outstanding.Load() != 0 {
		panic("jade: Serial with tasks outstanding; call Wait first")
	}
	if len(accs) > 0 {
		// Serial phases see and produce versions too.
		rt.sync.RegisterSerial(accs)
		rt.platform.MainTouches(accs)
	}
	if !rt.cfg.WorkFree && body != nil {
		body()
	}
	rt.platform.SerialWork(work)
}

// Wait blocks the main program until every created task has completed
// (all bodies executed, virtual time advanced past the last
// completion).
func (rt *Runtime) Wait() {
	rt.platform.Drain()
	if n := rt.outstanding.Load(); n != 0 {
		panic(fmt.Sprintf("jade: %d tasks still outstanding after Drain", n))
	}
}

// RunBody executes the task's body. Platforms call it once, at the
// virtual time the task starts executing; by then the synchronizer
// guarantees all conflicting predecessors have completed.
func (rt *Runtime) RunBody(t *Task) {
	if t.Body != nil {
		t.Body()
	}
}

// TaskDone records the task's completion in the synchronizer and
// notifies the platform of each newly enabled task. Platforms call it
// at the task's completion time; it panics unless the task was enabled
// and has not completed before.
func (rt *Runtime) TaskDone(t *Task) {
	rt.sync.finish(t)
	rt.outstanding.Add(-1)
	for _, n := range rt.sync.Complete(t) {
		rt.platform.TaskEnabled(n)
	}
}

// Locker returns the lock that guards the runtime's dependence state.
// A Runtime is driven from one goroutine at a time, with one exception:
// a platform may complete tasks on other goroutines while the main
// program creates more, as the native runtime does. Task creation
// holds this lock, and such a platform must hold it around each
// TaskDone and ReleaseEarly call. Platforms that complete tasks
// only inside Drain, on the main program's goroutine, never take it.
func (rt *Runtime) Locker() sync.Locker { return &rt.mu }

// ResetMetrics zeroes the platform's measurements and restarts its
// execution-time baseline. Call it after untimed initialization
// phases (the paper's timings omit them). Any outstanding tasks must
// be drained first.
func (rt *Runtime) ResetMetrics() {
	rt.Wait()
	rt.platform.ResetStats()
}

// Tasks returns the created tasks in creation order.
func (rt *Runtime) Tasks() []*Task { return rt.sync.tasks }

// Objects returns the allocated objects in allocation order.
func (rt *Runtime) Objects() []*Object { return rt.objects }

// Finish completes the run: waits for stragglers and returns the
// platform's measurements.
func (rt *Runtime) Finish() *metrics.Run {
	if !rt.finished {
		rt.Wait()
		rt.finished = true
	}
	return rt.platform.Stats()
}
