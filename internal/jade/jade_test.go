package jade

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/metrics"
)

// mockPlatform executes tasks immediately when enabled, in enable
// order, on a single conceptual processor. It exists to test the
// runtime/synchronizer semantics independent of any machine model.
type mockPlatform struct {
	rt      *Runtime
	queue   []*Task
	stats   metrics.Run
	order   []TaskID
	enabled map[TaskID]int // TaskEnabled calls per task
}

func (m *mockPlatform) Attach(rt *Runtime)        { m.rt = rt }
func (m *mockPlatform) Processors() int           { return 4 }
func (m *mockPlatform) ObjectAllocated(o *Object) {}
func (m *mockPlatform) SerialWork(d float64)      {}
func (m *mockPlatform) MainTouches(accs []Access) {}
func (m *mockPlatform) Stats() *metrics.Run       { return &m.stats }
func (m *mockPlatform) ResetStats()               { m.stats = metrics.Run{} }
func (m *mockPlatform) TaskEnabled(t *Task) {
	m.queue = append(m.queue, t)
	m.enabled[t.ID]++
}
func (m *mockPlatform) TaskCreated(t *Task, enabled bool) {
	if enabled {
		m.queue = append(m.queue, t)
	}
}
func (m *mockPlatform) Drain() {
	for len(m.queue) > 0 {
		t := m.queue[0]
		m.queue = m.queue[1:]
		m.order = append(m.order, t.ID)
		if segs := t.Segments; len(segs) > 0 {
			for i := range segs {
				m.rt.RunSegmentBody(t, i)
				for _, o := range segs[i].Release {
					m.rt.ReleaseEarly(t, o)
				}
			}
		} else {
			m.rt.RunBody(t)
		}
		m.rt.TaskDone(t)
	}
}

func newMock() (*Runtime, *mockPlatform) {
	p := &mockPlatform{enabled: map[TaskID]int{}}
	rt := New(p, Config{})
	return rt, p
}

func TestModeString(t *testing.T) {
	cases := map[Mode]string{Read: "rd", Write: "wr", Read | Write: "rdwr", 0: "none"}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", m, got, want)
		}
	}
}

func TestWriteAfterWriteSerializes(t *testing.T) {
	rt, p := newMock()
	o := rt.Alloc("x", 8, nil)
	val := 0
	for i := 1; i <= 5; i++ {
		i := i
		rt.WithOnly(func(s *Spec) { s.Wr(o) }, 0, func() { val = val*10 + i })
	}
	rt.Wait()
	if val != 12345 {
		t.Fatalf("writes reordered: val = %d, want 12345", val)
	}
	for i, id := range p.order {
		if int(id) != i {
			t.Fatalf("execution order %v, want serial order", p.order)
		}
	}
}

func TestConcurrentReadsAllEnabledAtCreation(t *testing.T) {
	rt, p := newMock()
	o := rt.Alloc("x", 8, nil)
	for i := 0; i < 4; i++ {
		rt.WithOnly(func(s *Spec) { s.Rd(o) }, 0, func() {})
	}
	// All four readers must be enabled immediately (no writer).
	if len(p.queue) != 4 {
		t.Fatalf("enabled at creation = %d, want 4", len(p.queue))
	}
	rt.Wait()
}

func TestReadersWaitForWriterThenRunConcurrently(t *testing.T) {
	rt, p := newMock()
	o := rt.Alloc("x", 8, nil)
	wrote := false
	rt.WithOnly(func(s *Spec) { s.Wr(o) }, 0, func() { wrote = true })
	sawWrite := 0
	for i := 0; i < 3; i++ {
		rt.WithOnly(func(s *Spec) { s.Rd(o) }, 0, func() {
			if wrote {
				sawWrite++
			}
		})
	}
	// Only the writer is enabled before Drain.
	if len(p.queue) != 1 {
		t.Fatalf("enabled at creation = %d, want 1 (the writer)", len(p.queue))
	}
	rt.Wait()
	if sawWrite != 3 {
		t.Fatalf("readers ran before writer: %d/3 saw the write", sawWrite)
	}
}

func TestWriterWaitsForAllReaders(t *testing.T) {
	rt, _ := newMock()
	o := rt.Alloc("x", 8, nil)
	reads := 0
	for i := 0; i < 3; i++ {
		rt.WithOnly(func(s *Spec) { s.Rd(o) }, 0, func() { reads++ })
	}
	var seen int
	rt.WithOnly(func(s *Spec) { s.Wr(o) }, 0, func() { seen = reads })
	rt.Wait()
	if seen != 3 {
		t.Fatalf("writer ran after %d of 3 readers", seen)
	}
}

func TestVersionAssignment(t *testing.T) {
	rt, _ := newMock()
	o := rt.Alloc("x", 8, nil)
	t1 := rt.WithOnly(func(s *Spec) { s.Wr(o) }, 0, func() {})   // produces v1
	t2 := rt.WithOnly(func(s *Spec) { s.Rd(o) }, 0, func() {})   // reads v1
	t3 := rt.WithOnly(func(s *Spec) { s.RdWr(o) }, 0, func() {}) // reads v1, produces v2
	t4 := rt.WithOnly(func(s *Spec) { s.Rd(o) }, 0, func() {})   // reads v2
	rt.Wait()
	if v := t1.Accesses[0].RequiredVersion; v != 0 {
		t.Errorf("t1 required version %d, want 0", v)
	}
	if v := t2.Accesses[0].RequiredVersion; v != 1 {
		t.Errorf("t2 required version %d, want 1", v)
	}
	if v := t3.Accesses[0].RequiredVersion; v != 1 {
		t.Errorf("t3 required version %d, want 1", v)
	}
	if v := t4.Accesses[0].RequiredVersion; v != 2 {
		t.Errorf("t4 required version %d, want 2", v)
	}
}

func TestDuplicateDeclarationsMerge(t *testing.T) {
	rt, _ := newMock()
	o := rt.Alloc("x", 8, nil)
	task := rt.WithOnly(func(s *Spec) { s.Rd(o); s.Wr(o); s.Rd(o) }, 0, func() {})
	rt.Wait()
	if len(task.Accesses) != 1 {
		t.Fatalf("accesses = %d, want 1 merged", len(task.Accesses))
	}
	if task.Accesses[0].Mode != Read|Write {
		t.Fatalf("merged mode = %v, want rdwr", task.Accesses[0].Mode)
	}
}

func TestIndependentObjectsRunIndependently(t *testing.T) {
	rt, p := newMock()
	a := rt.Alloc("a", 8, nil)
	b := rt.Alloc("b", 8, nil)
	rt.WithOnly(func(s *Spec) { s.Wr(a) }, 0, func() {})
	rt.WithOnly(func(s *Spec) { s.Wr(b) }, 0, func() {})
	if len(p.queue) != 2 {
		t.Fatalf("independent writers not both enabled: %d", len(p.queue))
	}
	rt.Wait()
}

func TestMultiPhaseWithSerial(t *testing.T) {
	rt, _ := newMock()
	o := rt.Alloc("acc", 8, new(int))
	sum := o.Data.(*int)
	for phase := 0; phase < 3; phase++ {
		for i := 0; i < 4; i++ {
			rt.WithOnly(func(s *Spec) { s.RdWr(o) }, 0, func() { *sum++ })
		}
		rt.Wait()
		rt.Serial(0, func() { *sum *= 2 }, func(s *Spec) { s.RdWr(o) })
	}
	res := rt.Finish()
	// ((0+4)*2+4)*2+4)*2 = 56
	if *sum != 56 {
		t.Fatalf("sum = %d, want 56", *sum)
	}
	if res.TaskCount != 0 && res.TaskCount != 12 {
		// mock platform doesn't count tasks; just ensure Finish works.
		t.Fatalf("unexpected TaskCount %d", res.TaskCount)
	}
}

func TestLocalityObjectPolicies(t *testing.T) {
	rt, _ := newMock()
	small := rt.Alloc("small", 8, nil)
	big := rt.Alloc("big", 800, nil)
	task := rt.WithOnly(func(s *Spec) { s.Rd(small); s.Wr(big) }, 0, func() {})
	rt.Wait()
	if got := task.LocalityObject(LocalityFirst); got != small {
		t.Errorf("LocalityFirst = %s, want small", got.Name)
	}
	if got := task.LocalityObject(LocalityLargest); got != big {
		t.Errorf("LocalityLargest = %s, want big", got.Name)
	}
	if got := task.LocalityObject(LocalityFirstWrite); got != big {
		t.Errorf("LocalityFirstWrite = %s, want big (first written)", got.Name)
	}
}

func TestPlaceOnOption(t *testing.T) {
	rt, _ := newMock()
	o := rt.Alloc("x", 8, nil)
	task := rt.WithOnly(func(s *Spec) { s.Rd(o) }, 0, func() {}, PlaceOn(2))
	rt.Wait()
	if task.Placed != 2 {
		t.Fatalf("Placed = %d, want 2", task.Placed)
	}
}

func TestWorkFreeSkipsBodies(t *testing.T) {
	p := &mockPlatform{}
	rt := New(p, Config{WorkFree: true})
	o := rt.Alloc("x", 8, nil)
	ran := false
	rt.WithOnly(func(s *Spec) { s.Wr(o) }, 5, func() { ran = true })
	rt.Wait()
	if ran {
		t.Fatal("work-free mode executed a task body")
	}
}

func TestEmptySpecPanics(t *testing.T) {
	rt, _ := newMock()
	defer func() {
		if recover() == nil {
			t.Fatal("task with no accesses did not panic")
		}
	}()
	rt.WithOnly(func(s *Spec) {}, 0, func() {})
}

func TestSerialWithOutstandingPanics(t *testing.T) {
	rt, _ := newMock()
	o := rt.Alloc("x", 8, nil)
	rt.WithOnly(func(s *Spec) { s.Wr(o) }, 0, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("Serial with outstanding tasks did not panic")
		}
	}()
	rt.Serial(0, func() {})
}

// Property: for a random task DAG over a handful of objects, execution
// respects serial order on every pair of conflicting tasks, and the
// final object values equal a pure serial execution.
func TestSerialEquivalenceProperty(t *testing.T) {
	type accPlan struct {
		obj  int
		mode Mode
	}
	run := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const nObj = 4
		const nTask = 30

		// Build a random plan.
		plans := make([][]accPlan, nTask)
		for i := range plans {
			n := 1 + rng.Intn(3)
			used := map[int]bool{}
			for j := 0; j < n; j++ {
				o := rng.Intn(nObj)
				if used[o] {
					continue
				}
				used[o] = true
				mode := Read
				if rng.Intn(2) == 0 {
					mode = Write
				}
				if rng.Intn(4) == 0 {
					mode = Read | Write
				}
				plans[i] = append(plans[i], accPlan{o, mode})
			}
		}

		// Serial execution: each write appends the task id.
		serial := make([][]int, nObj)
		for i, plan := range plans {
			for _, a := range plan {
				if a.mode&Write != 0 {
					serial[a.obj] = append(serial[a.obj], i)
				}
			}
		}

		// Jade execution on the mock platform.
		rt, _ := newMock()
		objs := make([]*Object, nObj)
		vals := make([][]int, nObj)
		for i := range objs {
			objs[i] = rt.Alloc("o", 8, nil)
		}
		for i, plan := range plans {
			i, plan := i, plan
			rt.WithOnly(func(s *Spec) {
				for _, a := range plan {
					switch a.mode {
					case Read:
						s.Rd(objs[a.obj])
					case Write:
						s.Wr(objs[a.obj])
					default:
						s.RdWr(objs[a.obj])
					}
				}
			}, 0, func() {
				for _, a := range plan {
					if a.mode&Write != 0 {
						vals[a.obj] = append(vals[a.obj], i)
					}
				}
			})
		}
		rt.Wait()
		for o := range vals {
			if len(vals[o]) != len(serial[o]) {
				return false
			}
			for k := range vals[o] {
				if vals[o][k] != serial[o][k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocAfterFinishPanics(t *testing.T) {
	rt, _ := newMock()
	rt.Finish()
	defer func() {
		if recover() == nil {
			t.Fatal("Alloc after Finish did not panic")
		}
	}()
	rt.Alloc("late", 8, nil)
}

func TestWithOnlyAfterFinishPanics(t *testing.T) {
	rt, _ := newMock()
	o := rt.Alloc("x", 8, nil)
	rt.Finish()
	defer func() {
		if recover() == nil {
			t.Fatal("WithOnly after Finish did not panic")
		}
	}()
	rt.WithOnly(func(s *Spec) { s.Rd(o) }, 0, func() {})
}

func TestAllocBadProcessorPanics(t *testing.T) {
	rt, _ := newMock() // 4 processors
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range placement did not panic")
		}
	}()
	rt.Alloc("x", 8, nil, OnProcessor(9))
}

func TestPlaceOnBadProcessorPanics(t *testing.T) {
	rt, _ := newMock()
	o := rt.Alloc("x", 8, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range PlaceOn did not panic")
		}
	}()
	rt.WithOnly(func(s *Spec) { s.Rd(o) }, 0, func() {}, PlaceOn(99))
}

func TestNilObjectAccessPanics(t *testing.T) {
	rt, _ := newMock()
	defer func() {
		if recover() == nil {
			t.Fatal("nil object access did not panic")
		}
	}()
	rt.WithOnly(func(s *Spec) { s.Rd(nil) }, 0, func() {})
}

func TestTasksAndObjectsAccessors(t *testing.T) {
	rt, _ := newMock()
	a := rt.Alloc("a", 8, nil)
	b := rt.Alloc("b", 8, nil)
	rt.WithOnly(func(s *Spec) { s.Rd(a); s.Wr(b) }, 0, func() {})
	rt.Wait()
	if len(rt.Objects()) != 2 || rt.Objects()[0] != a {
		t.Fatal("Objects() wrong")
	}
	if len(rt.Tasks()) != 1 || rt.Tasks()[0].ID != 0 {
		t.Fatal("Tasks() wrong")
	}
}

func TestFinishIdempotent(t *testing.T) {
	rt, _ := newMock()
	o := rt.Alloc("x", 8, nil)
	rt.WithOnly(func(s *Spec) { s.Rd(o) }, 0, func() {})
	r1 := rt.Finish()
	r2 := rt.Finish()
	if r1 != r2 {
		t.Fatal("Finish not idempotent")
	}
}
