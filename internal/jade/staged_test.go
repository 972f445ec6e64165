package jade

import "testing"

func TestStagedReleaseEnablesSuccessorEarly(t *testing.T) {
	rt, p := newMock()
	a := rt.Alloc("a", 8, nil)
	b := rt.Alloc("b", 8, nil)

	var trace []string
	rt.WithOnlyStaged(func(s *Spec) { s.Wr(a); s.Wr(b) }, []Segment{
		{Body: func() { trace = append(trace, "stage1") }, Release: []*Object{a}},
		{Body: func() { trace = append(trace, "stage2") }},
	})
	rt.WithOnly(func(s *Spec) { s.Rd(a) }, 0, func() { trace = append(trace, "readerA") })
	rt.WithOnly(func(s *Spec) { s.Rd(b) }, 0, func() { trace = append(trace, "readerB") })
	rt.Wait()

	// The mock runs released successors after the staged task's
	// remaining segments (single queue), but the A-reader must have
	// been enabled by the release, i.e. before TaskDone. Check both
	// readers ran and stage order held.
	want := map[string]bool{"stage1": true, "stage2": true, "readerA": true, "readerB": true}
	for _, tr := range trace {
		delete(want, tr)
	}
	if len(want) != 0 {
		t.Fatalf("missing events: %v (trace %v)", want, trace)
	}
	if trace[0] != "stage1" || trace[1] != "stage2" {
		t.Fatalf("segments out of order: %v", trace)
	}
	_ = p
}

func TestStagedReleaseUndeclaredPanics(t *testing.T) {
	rt, _ := newMock()
	a := rt.Alloc("a", 8, nil)
	b := rt.Alloc("b", 8, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("releasing an undeclared object did not panic")
		}
	}()
	rt.WithOnlyStaged(func(s *Spec) { s.Wr(a) }, []Segment{
		{Release: []*Object{b}},
	})
}

func TestStagedDoubleReleasePanics(t *testing.T) {
	rt, _ := newMock()
	a := rt.Alloc("a", 8, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	rt.WithOnlyStaged(func(s *Spec) { s.Wr(a) }, []Segment{
		{Release: []*Object{a}},
		{Release: []*Object{a}},
	})
}

func TestStagedEmptyPanics(t *testing.T) {
	rt, _ := newMock()
	defer func() {
		if recover() == nil {
			t.Fatal("empty segment list did not panic")
		}
	}()
	rt.WithOnlyStaged(func(s *Spec) {}, nil)
}

func TestStagedWorkSums(t *testing.T) {
	rt, _ := newMock()
	a := rt.Alloc("a", 8, nil)
	task := rt.WithOnlyStaged(func(s *Spec) { s.Wr(a) }, []Segment{
		{Work: 1.5}, {Work: 2.5},
	})
	rt.Wait()
	if task.Work != 4 {
		t.Fatalf("Work = %v, want 4", task.Work)
	}
}

func TestCompleteEntryIdempotent(t *testing.T) {
	rt, _ := newMock()
	a := rt.Alloc("a", 8, nil)
	task := rt.WithOnlyStaged(func(s *Spec) { s.Wr(a) }, []Segment{
		{Release: []*Object{a}},
	})
	rt.Wait() // drain: release fires once, TaskDone skips done entry
	if rt.sync.pending[task.ID] != 0 {
		t.Fatal("pending should be settled")
	}
	// A second CompleteEntry on the same object is a no-op.
	if newly := rt.ReleaseEarly(task, a); len(newly) != 0 {
		t.Fatalf("idempotent release enabled %d tasks", len(newly))
	}
}

func TestAccessOn(t *testing.T) {
	rt, _ := newMock()
	a := rt.Alloc("a", 8, nil)
	b := rt.Alloc("b", 8, nil)
	task := rt.WithOnly(func(s *Spec) { s.Wr(a) }, 0, func() {})
	rt.Wait()
	if _, ok := task.AccessOn(a); !ok {
		t.Fatal("AccessOn missed a declared object")
	}
	if _, ok := task.AccessOn(b); ok {
		t.Fatal("AccessOn found an undeclared object")
	}
}
