package obsv

import (
	"math"
	"strings"
	"testing"
	"unsafe"
)

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 100 observations: 1ms × 90, 10ms × 9, 100ms × 1.
	for i := 0; i < 90; i++ {
		h.Record(1e-3)
	}
	for i := 0; i < 9; i++ {
		h.Record(10e-3)
	}
	h.Record(100e-3)

	if h.Count() != 100 {
		t.Fatalf("Count = %d, want 100", h.Count())
	}
	if got := h.Max(); got != 100e-3 {
		t.Fatalf("Max = %v, want 0.1", got)
	}
	if got := h.Min(); got != 1e-3 {
		t.Fatalf("Min = %v, want 0.001", got)
	}
	// Log-bucketed: quantiles are upper bounds within 12.5% relative
	// error of the true value.
	p50 := h.Quantile(0.50)
	if p50 < 1e-3 || p50 > 1e-3*1.13 {
		t.Fatalf("p50 = %v, want ~1e-3", p50)
	}
	p95 := h.Quantile(0.95)
	if p95 < 10e-3 || p95 > 10e-3*1.13 {
		t.Fatalf("p95 = %v, want ~1e-2", p95)
	}
	if got := h.Quantile(1); got != 100e-3 {
		t.Fatalf("p100 = %v, want exact max", got)
	}
	if mean := h.Mean(); math.Abs(mean-(90*1e-3+9*10e-3+100e-3)/100) > 1e-12 {
		t.Fatalf("Mean = %v", mean)
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Summary().Count != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	h.Record(0)
	h.Record(-5)              // accounting bug upstream → recorded as 0
	h.Record(math.NaN())      // likewise
	h.Record(1e-300)          // below range → lowest bucket
	h.Record(math.MaxFloat64) // above range → highest bucket
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if h.Quantile(0.5) < 0 {
		t.Fatal("quantile must be nonnegative")
	}
}

func TestHistogramFixedMemoryBuckets(t *testing.T) {
	// Every representable positive value maps into range.
	for _, v := range []float64{1e-12, 1e-6, 1, 1e6, 1e12} {
		idx := bucketOf(v)
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("bucketOf(%g) = %d out of range", v, idx)
		}
		if u := bucketUpper(idx); u < v && idx != histBuckets-1 {
			t.Fatalf("bucketUpper(%d) = %g < %g", idx, u, v)
		}
	}
}

func TestNilSinkRecordsNothing(t *testing.T) {
	var o *Observer
	if o.Snapshot(5) != nil {
		t.Fatal("nil observer snapshot must be nil")
	}
}

// fetch is one object transfer of class k and the given latency.
func fetch(id int, name string, bytes int, latency float64, k FetchClass) Event {
	return Event{Kind: Fetch, Class: k, Obj: id, Name: name, Bytes: bytes, End: latency}
}

func TestObserverHotObjects(t *testing.T) {
	o := New(2)
	// Object 2 moves the most bytes; object 0 the fewest.
	o.Record(fetch(0, "cold", 8, 1e-6, Copy))
	for i := 0; i < 3; i++ {
		o.Record(fetch(1, "warm", 100, 1e-5, Replica))
	}
	for i := 0; i < 5; i++ {
		o.Record(fetch(2, "hot", 1000, 1e-4, RemoteLine))
	}
	// A read served in place and an update push move bytes no task
	// waits for: they add to the object's bytes and nothing else.
	o.Record(fetch(0, "cold", 8, 1, Hit))
	o.Record(fetch(0, "cold", 8, 1, Push))
	// A broadcast reaches the one other processor.
	o.Record(Event{Kind: Broadcast, Obj: 2, Name: "hot", Bytes: 1000})
	o.Record(Event{Kind: FetchEnd, Task: 7, At: 1e-4, End: 3e-4})

	s := o.Snapshot(2)
	if s.ObjectCount != 3 {
		t.Fatalf("ObjectCount = %d, want 3", s.ObjectCount)
	}
	if len(s.HotObjects) != 2 {
		t.Fatalf("top-2 returned %d objects", len(s.HotObjects))
	}
	if s.HotObjects[0].Name != "hot" || s.HotObjects[1].Name != "warm" {
		t.Fatalf("hot order wrong: %+v", s.HotObjects)
	}
	if s.HotObjects[0].Bytes != 6000 || s.HotObjects[0].Broadcasts != 1 {
		t.Fatalf("hot object stats wrong: %+v", s.HotObjects[0])
	}
	if s.HotObjects[1].ReplicatedReads != 3 {
		t.Fatalf("warm replicated reads = %d, want 3", s.HotObjects[1].ReplicatedReads)
	}
	if s.FetchLatency.Count != 9 || s.TaskWait.Count != 1 {
		t.Fatalf("latency counts wrong: %+v %+v", s.FetchLatency, s.TaskWait)
	}
	if cold := o.Snapshot(3).HotObjects[2]; cold.Fetches != 1 || cold.Bytes != 24 || cold.WaitSec != 1e-6 {
		t.Fatalf("cold object stats wrong: %+v", cold)
	}
	if bytes, reads := o.Totals(); bytes != 6324 || reads != 3 {
		t.Fatalf("Totals = %d bytes, %d replicated reads; want 6324, 3", bytes, reads)
	}
	var sb strings.Builder
	s.WriteHotObjects(&sb)
	for _, want := range []string{"hot", "warm", "fetch latency", "task wait"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, sb.String())
		}
	}
}

// Distinct objects may share a name (an application's per-processor
// boundary blocks, say): the text report must tell their rows apart by
// ID even when every figure is the same.
// A Fetch built without a class would otherwise count as some class
// silently; the observer refuses it.
func TestFetchWithoutClassPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Record accepted a Fetch without a class")
		}
	}()
	New(1).Record(Event{Kind: Fetch, Obj: 1, Name: "x", Bytes: 8})
}

func TestHotObjectsSameNameRowsCarryIDs(t *testing.T) {
	o := New(2)
	for _, id := range []int{4, 9} {
		for i := 0; i < 2; i++ {
			o.Record(fetch(id, "boundary", 512, 1e-5, Replica))
		}
	}
	var sb strings.Builder
	o.Snapshot(2).WriteHotObjects(&sb)
	var rows []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.Contains(line, "boundary") {
			rows = append(rows, strings.Fields(line)[0])
		}
	}
	if len(rows) != 2 || rows[0] == rows[1] {
		t.Fatalf("same-name rows lead with IDs %q, want two distinct IDs:\n%s", rows, sb.String())
	}
	for _, want := range []string{"4", "9"} {
		if rows[0] != want && rows[1] != want {
			t.Fatalf("no row for object %s:\n%s", want, sb.String())
		}
	}
}

func TestObserverReset(t *testing.T) {
	o := New(1)
	o.Record(fetch(0, "x", 10, 1e-3, Replica))
	o.Record(Event{Kind: ExecEnd, At: 0, End: 1})
	o.Record(Event{Kind: Reset})
	s := o.Snapshot(5)
	if s.ObjectCount != 0 || s.FetchLatency.Count != 0 || s.Timeline.Bins != 0 {
		t.Fatalf("reset did not clear: %+v", s)
	}
}

// Task wait is queue wait on DASH (Enabled → ExecStart) and the fetch
// stall elsewhere (FetchEnd); the main program's fetches are no task's
// wait but still show on the timeline.
func TestObserverTaskWait(t *testing.T) {
	o := New(2)
	o.Record(Event{Kind: Enabled, Task: 3, Proc: -1, At: 1})
	o.Record(Event{Kind: ExecStart, Task: 3, Proc: 1, At: 4})
	o.Record(Event{Kind: ExecStart, Task: 4, Proc: 1, At: 5}) // never enabled: no wait
	o.Record(Event{Kind: FetchEnd, Task: 5, Proc: 0, At: 2, End: 2.5})
	o.Record(Event{Kind: FetchEnd, Task: -1, Proc: 0, At: 6, End: 8})
	s := o.Snapshot(0)
	if s.TaskWait.Count != 2 || s.TaskWait.MaxSec != 3 {
		t.Fatalf("task wait = %+v, want the 3s queue wait and the 0.5s stall", s.TaskWait)
	}
	var fetchSec float64
	for _, v := range s.Timeline.Procs[0].FetchSec {
		fetchSec += v
	}
	if math.Abs(fetchSec-2.5) > 1e-9 {
		t.Fatalf("p0 fetch time = %v, want 2.5", fetchSec)
	}
}

func TestTeeFansOutInOrder(t *testing.T) {
	var got []Kind
	rec := sinkFunc(func(e Event) { got = append(got, e.Kind) })
	Tee{rec, rec}.Record(Event{Kind: Created})
	Tee{rec}.Record(Event{Kind: Reset})
	if len(got) != 3 || got[0] != Created || got[1] != Created || got[2] != Reset {
		t.Fatalf("tee delivered %v", got)
	}
}

type sinkFunc func(Event)

func (f sinkFunc) Record(e Event) { f(e) }

func TestTimelineBinningAndRescale(t *testing.T) {
	tl := newTimeline(2)
	// A span far beyond the initial 192×1µs window forces rescaling.
	tl.add(0, StateTask, 0, 1.0)
	tl.add(1, StateFetch, 0.5, 1.0)
	tl.add(0, StateMgmt, 0, 0.25)
	snap := tl.snapshot()
	if snap.Bins == 0 || snap.Bins > timelineBins {
		t.Fatalf("bins = %d", snap.Bins)
	}
	sum := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s
	}
	if got := sum(snap.Procs[0].TaskSec); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("p0 task total = %v, want 1.0", got)
	}
	if got := sum(snap.Procs[1].FetchSec); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("p1 fetch total = %v, want 0.5", got)
	}
	if got := sum(snap.Procs[0].MgmtSec); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("p0 mgmt total = %v, want 0.25", got)
	}
	// No bin may hold more time than its width (per state).
	for _, ps := range snap.Procs {
		for i := 0; i < snap.Bins; i++ {
			if ps.TaskSec[i] > snap.BinSec+1e-12 {
				t.Fatalf("bin %d overfull: %v > %v", i, ps.TaskSec[i], snap.BinSec)
			}
		}
	}
}

func TestStateStrings(t *testing.T) {
	for st, want := range map[State]string{StateTask: "task", StateFetch: "fetch", StateMgmt: "mgmt"} {
		if st.String() != want {
			t.Fatalf("State(%d).String() = %q, want %q", st, st.String(), want)
		}
	}
}

// Class fits in the padding after Flag, so an Event stays 80 bytes on
// a 64-bit platform.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); unsafe.Sizeof(uintptr(0)) == 8 && n != 80 {
		t.Fatalf("obsv.Event is %d bytes, want 80", n)
	}
}

func TestKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := Created; k <= Reset; k++ {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("bad or duplicate kind string %q for kind %d", s, k)
		}
		seen[s] = true
	}
}
