package sim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// The engine's observable contract is: events fire in (time, seq)
// order, where seq is scheduling order. These tests pin that contract
// across the heap/bucket rewrite by replaying the same scenarios on a
// deliberately naive reference simulator (linear scan for the minimal
// (time, seq) pair — the spec, executed literally) and on the real
// engine, and requiring identical traces of (virtual time, event id).

// scheduler is the surface a scenario needs; *Engine and *refSim both
// provide it.
type scheduler interface {
	At(t Time, fn func())
	Now() Time
}

// eventLess is the documented ordering, stated literally: earlier
// times first, FIFO among equal times.
func eventLess(a, b refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// refSim is the reference implementation: an unordered slice scanned
// for the minimum on every step. O(n^2) and allocation-happy, but
// obviously correct against the documented ordering.
type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type refSim struct {
	events []refEvent
	now    Time
	seq    uint64
}

func (r *refSim) Now() Time { return r.now }

func (r *refSim) At(t Time, fn func()) {
	if t < r.now {
		panic("refSim: event scheduled in the past")
	}
	r.seq++
	r.events = append(r.events, refEvent{at: t, seq: r.seq, fn: fn})
}

func (r *refSim) Run() Time {
	for len(r.events) > 0 {
		min := 0
		for i := 1; i < len(r.events); i++ {
			if eventLess(r.events[i], r.events[min]) {
				min = i
			}
		}
		ev := r.events[min]
		r.events = append(r.events[:min], r.events[min+1:]...)
		r.now = ev.at
		ev.fn()
	}
	return r.now
}

// traceStep is one fired event as seen by a scenario's probe.
type traceStep struct {
	ID string
	At Time
}

// runScenario executes build against a scheduler, collecting the
// trace, and returns it with the final time.
func runScenario(s scheduler, run func() Time, build func(s scheduler, emit func(id string))) ([]traceStep, Time) {
	var trace []traceStep
	emit := func(id string) { trace = append(trace, traceStep{ID: id, At: s.Now()}) }
	build(s, emit)
	end := run()
	return trace, end
}

// splitScenario names the scenario that puts events, and ties at one
// time, into each of the engine's three sources.
const splitScenario = "ties split across bucket, near and heap"

// scenarios is the shared table: each builds an event graph, including
// nested scheduling, same-time bursts, and cascades.
var scenarios = []struct {
	name  string
	build func(s scheduler, emit func(id string))
}{
	{"static times with ties", func(s scheduler, emit func(string)) {
		for i, at := range []Time{3, 1, 2, 1, 5, 4, 2, 2} {
			id := fmt.Sprintf("e%d@%v", i, at)
			s.At(at, func() { emit(id) })
		}
	}},
	{"pure cascade", func(s scheduler, emit func(string)) {
		n := 40
		var step func()
		step = func() {
			emit(fmt.Sprintf("step%d", n))
			n--
			if n > 0 {
				s.At(s.Now()+1, step)
			}
		}
		s.At(0, step)
	}},
	{"cascade interleaved with static events", func(s scheduler, emit func(string)) {
		for i := 0; i < 10; i++ {
			id := fmt.Sprintf("static%d", i)
			s.At(Time(i)+0.5, func() { emit(id) })
		}
		n := 0
		var step func()
		step = func() {
			emit(fmt.Sprintf("cascade%d", n))
			n++
			if n < 12 {
				s.At(s.Now()+1, step)
			}
		}
		s.At(0, step)
	}},
	{"same-time fan-out from a fired event", func(s scheduler, emit func(string)) {
		s.At(2, func() {
			emit("root")
			for i := 0; i < 5; i++ {
				id := fmt.Sprintf("now%d", i)
				s.At(s.Now(), func() { emit(id) })
			}
			s.At(s.Now()+1, func() { emit("later") })
		})
		s.At(2, func() { emit("sibling") })
		s.At(4, func() { emit("tail") })
	}},
	{splitScenario, func(s scheduler, emit func(string)) {
		at := func(t Time, id string, then func()) {
			s.At(t, func() {
				emit(id)
				if then != nil {
					then()
				}
			})
		}
		// The first event at 5 seeds the bucket, whose tail then moves
		// to 9, so earlier events scan into near.
		at(5, "bucket5", nil)
		at(9, "bucket9", nil)
		// nearDepth+1 events at 3 fill near to its depth; the rest, and
		// every event at 3..5 after them, land deeper: the heap.
		for i := 0; i < nearDepth+4; i++ {
			at(3, fmt.Sprintf("three%d", i), nil)
		}
		for i := 0; i < 3; i++ {
			at(5, fmt.Sprintf("heap5-%d", i), nil)
		}
		at(4, "heap4", nil)
		at(3, "late3", func() {
			// near has drained, so more ties at 5 land there: time 5
			// fires from the bucket, then the heap, then near.
			for i := 0; i < 3; i++ {
				at(5, fmt.Sprintf("near5-%d", i), nil)
			}
			// A same-time burst longer than nearDepth spills into the
			// heap; each burst event schedules a tie at 9.
			for i := 0; i < 2*nearDepth; i++ {
				id := fmt.Sprintf("burst%d", i)
				at(s.Now(), id, func() { at(9, id+"@9", nil) })
			}
		})
	}},
	{"lcg stress with nested rescheduling", func(s scheduler, emit func(string)) {
		// Deterministic LCG so both simulators see the same schedule.
		state := uint64(12345)
		next := func(mod int) int {
			state = state*6364136223846793005 + 1442695040888963407
			return int((state >> 33) % uint64(mod))
		}
		var spawn func(depth, id int)
		spawn = func(depth, id int) {
			at := s.Now() + Time(next(7)) // collisions on purpose
			s.At(at, func() {
				emit(fmt.Sprintf("d%d-%d", depth, id))
				if depth < 3 {
					for k := 0; k < next(3); k++ {
						spawn(depth+1, id*10+k)
					}
				}
			})
		}
		for i := 0; i < 50; i++ {
			spawn(0, i)
		}
	}},
}

// TestGoldenTraceMatchesReference replays every scenario on the real
// engine and the reference simulator and requires byte-for-byte equal
// traces: same events, same order, same virtual times.
func TestGoldenTraceMatchesReference(t *testing.T) {
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			e := New()
			gotTrace, gotEnd := runScenario(e, e.Run, sc.build)
			r := &refSim{}
			wantTrace, wantEnd := runScenario(r, r.Run, sc.build)
			if gotEnd != wantEnd {
				t.Fatalf("final time = %v, reference = %v", gotEnd, wantEnd)
			}
			if !reflect.DeepEqual(gotTrace, wantTrace) {
				if len(gotTrace) != len(wantTrace) {
					t.Fatalf("trace length %d, reference %d", len(gotTrace), len(wantTrace))
				}
				for i := range gotTrace {
					if gotTrace[i] != wantTrace[i] {
						t.Fatalf("step %d: engine fired %v, reference fired %v", i, gotTrace[i], wantTrace[i])
					}
				}
			}
		})
	}
}

// TestGoldenTraceLiteral pins one hand-checked trace as a literal, so
// a future rewrite that changes both engine and reference in the same
// wrong way still fails.
func TestGoldenTraceLiteral(t *testing.T) {
	e := New()
	got, end := runScenario(e, e.Run, func(s scheduler, emit func(string)) {
		s.At(1, func() {
			emit("a")
			s.At(s.Now(), func() { emit("a-now") })
			s.At(s.Now()+1, func() { emit("a-next") })
		})
		s.At(1, func() { emit("b") })
		s.At(0, func() { emit("first") })
		s.At(2, func() { emit("c") })
	})
	want := []traceStep{
		{"first", 0},
		{"a", 1}, {"b", 1}, {"a-now", 1},
		{"c", 2}, {"a-next", 2},
	}
	if end != 2 {
		t.Fatalf("final time = %v, want 2", end)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("trace:\n got %v\nwant %v", got, want)
	}
}

// TestGoldenSplitFillsEverySource checks that splitScenario exercises
// what it is named for, which its trace alone cannot show: the bucket,
// near and the heap each hold events, ties at 5 among them.
func TestGoldenSplitFillsEverySource(t *testing.T) {
	var build func(s scheduler, emit func(string))
	for _, sc := range scenarios {
		if sc.name == splitScenario {
			build = sc.build
		}
	}
	e := New()
	var bucket, near, heap int // the most events each source held
	sample := func() {
		bucket = max(bucket, e.bucket.n)
		near = max(near, len(e.near))
		heap = max(heap, len(e.heap))
	}
	runScenario(e, func() Time { sample(); return e.Run() }, func(s scheduler, emit func(string)) {
		build(s, func(id string) {
			sample()
			if id == "bucket5" {
				// The first tie at 5 fires from the bucket while the
				// heap and near still hold later ties at 5.
				for name, src := range map[string][]event{"near": e.near, "heap": e.heap} {
					if !slices.ContainsFunc(src, func(ev event) bool { return ev.at == 5 }) {
						t.Errorf("no tie at 5 in %s when the bucket's fired", name)
					}
				}
			}
			emit(id)
		})
	})
	if bucket == 0 || near == 0 || heap == 0 {
		t.Fatalf("sources held at most bucket=%d near=%d heap=%d events; want each > 0", bucket, near, heap)
	}
}
