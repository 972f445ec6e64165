package jade

import (
	"slices"
	"testing"
)

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

// segmentsSeen records each task's segment count as TaskCreated
// announces it.
type segmentsSeen struct {
	*mockPlatform
	created []int
}

func (p *segmentsSeen) TaskCreated(t *Task, enabled bool) {
	p.created = append(p.created, len(t.Segments))
	p.mockPlatform.TaskCreated(t, enabled)
}

// A staged task reaches the platform with its segments attached, and
// only once its releases are validated.
func TestStagedTaskCreatedWithSegments(t *testing.T) {
	p := &segmentsSeen{mockPlatform: &mockPlatform{enabled: map[TaskID]int{}}}
	rt := New(p, Config{})
	a := rt.Alloc("a", 8, nil)
	b := rt.Alloc("b", 8, nil)
	rt.WithOnlyStaged(func(s *Spec) { s.Wr(a); s.Wr(b) }, []Segment{{Release: []*Object{a}}, {}})
	if !slices.Equal(p.created, []int{2}) {
		t.Fatalf("TaskCreated saw segment counts %v, want [2]", p.created)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("releasing an undeclared object did not panic")
			}
		}()
		rt.WithOnlyStaged(func(s *Spec) { s.Wr(a) }, []Segment{{Release: []*Object{b}}})
	}()
	if len(p.created) != 1 {
		t.Fatalf("TaskCreated fired %d times; the invalid staged task reached the platform", len(p.created))
	}
	rt.Wait()
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

// A release fires its entry once: the successor is enabled exactly
// once, and neither TaskDone nor a repeated release fires it again.
func TestCompleteEntryIdempotent(t *testing.T) {
	rt, p := newMock()
	a := rt.Alloc("a", 8, nil)
	task := rt.WithOnlyStaged(func(s *Spec) { s.Wr(a) }, []Segment{
		{Release: []*Object{a}},
	})
	reader := rt.WithOnly(func(s *Spec) { s.Rd(a) }, 0, nil)
	rt.Wait() // the release enables the reader; TaskDone skips the done entry
	rt.ReleaseEarly(task, a)
	if got := p.enabled[reader.ID]; got != 1 {
		t.Fatalf("reader enabled %d times, want 1", got)
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
