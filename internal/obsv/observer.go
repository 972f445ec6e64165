package obsv

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// ObjectStat is the per-shared-object communication ledger: how often
// the object moved, how many bytes that cost, and how long tasks
// waited for it. It is the data behind the hot-objects report.
type ObjectStat struct {
	ID              int     `json:"id"`
	Name            string  `json:"name"`
	Fetches         int64   `json:"fetches"`
	Bytes           int64   `json:"bytes"`
	ReplicatedReads int64   `json:"replicated_reads"`
	Broadcasts      int64   `json:"broadcasts"`
	WaitSec         float64 `json:"wait_sec"`
}

// Observer is the event-stream consumer behind the jade-metrics/v1
// observability block: it folds a run's events into per-object
// statistics, streaming latency histograms and per-processor state
// timelines.
type Observer struct {
	mu      sync.Mutex
	procs   int
	objects map[int]*ObjectStat
	// enabled holds, per task, the time it entered DASH's ready
	// queues, until its ExecStart turns the interval into a task wait.
	enabled map[int]float64
	fetch   Histogram
	wait    Histogram
	deliv   Histogram
	tl      *timeline
}

// New returns an Observer for a machine with the given processor count.
func New(procs int) *Observer {
	return &Observer{procs: procs, objects: make(map[int]*ObjectStat),
		enabled: make(map[int]float64), tl: newTimeline(procs)}
}

func (o *Observer) object(id int, name string) *ObjectStat {
	st, ok := o.objects[id]
	if !ok {
		st = &ObjectStat{ID: id, Name: name}
		o.objects[id] = st
	}
	return st
}

// Record implements Sink. Task wait is a DASH task's ready-queue wait
// (Enabled to ExecStart) and a message-passing task's fetch stall
// (FetchEnd); a broadcast moves the object to every other processor.
// Every Fetch adds its bytes to its object's; one of class Hit or Push
// adds nothing else, and only a Replica is a replicated read. A Fetch
// without a class is a producer's bug, and Record panics on it.
func (o *Observer) Record(e Event) {
	if e.Kind == Fetch && e.Class == Unclassified {
		panic(fmt.Sprintf("obsv: Fetch of object %d (%s) has no class", e.Obj, e.Name))
	}
	o.mu.Lock()
	switch e.Kind {
	case Enabled:
		o.enabled[e.Task] = e.At
	case ExecStart:
		if at, ok := o.enabled[e.Task]; ok {
			o.wait.Record(e.At - at)
			delete(o.enabled, e.Task)
		}
	case FetchEnd:
		if e.Task >= 0 {
			o.wait.Record(e.End - e.At)
		}
		o.tl.add(e.Proc, StateFetch, e.At, e.End)
	case Segment:
		o.tl.add(e.Proc, StateTask, e.At, e.End)
	case ExecEnd:
		if !e.Flag {
			o.tl.add(e.Proc, StateTask, e.At, e.End)
		}
	case Mgmt:
		o.tl.add(e.Proc, StateMgmt, e.At, e.End)
	case Fetch:
		st := o.object(e.Obj, e.Name)
		st.Bytes += int64(e.Bytes)
		if e.Class == Hit || e.Class == Push {
			break
		}
		st.Fetches++
		if e.Class == Replica {
			st.ReplicatedReads++
		}
		st.WaitSec += e.End - e.At
		o.fetch.Record(e.End - e.At)
	case Broadcast:
		st := o.object(e.Obj, e.Name)
		st.Broadcasts++
		st.Bytes += int64(e.Bytes) * int64(o.procs-1)
	case Delivery:
		o.deliv.Record(float64(e.N))
	case Reset:
		o.objects = make(map[int]*ObjectStat)
		o.fetch.Reset()
		o.wait.Reset()
		o.deliv.Reset()
		o.tl = newTimeline(o.procs)
	}
	o.mu.Unlock()
}

// Totals returns the sums over every object of its bytes (those of
// every Fetch, and of every Broadcast once per other processor) and of
// its replicated reads.
func (o *Observer) Totals() (bytes, replicatedReads int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, st := range o.objects {
		bytes += st.Bytes
		replicatedReads += st.ReplicatedReads
	}
	return bytes, replicatedReads
}

// Snapshot is the exported, JSON-stable view of one run's
// observability data, embedded in metrics reports.
type Snapshot struct {
	// HotObjects is the top-N objects by bytes moved, descending.
	HotObjects []ObjectStat `json:"hot_objects"`
	// ObjectCount is the number of distinct objects that communicated.
	ObjectCount int `json:"object_count"`
	// FetchLatency is the distribution of per-object fetch latencies.
	FetchLatency LatencySummary `json:"fetch_latency"`
	// TaskWait is the distribution of per-task waits: ready-queue wait
	// on DASH, the communication stall (first object request to last
	// arrival) on the message-passing machines.
	TaskWait LatencySummary `json:"task_wait"`
	// DeliveryAttempts is the distribution of transmission attempts
	// per delivered protocol message under fault injection (values are
	// counts, not seconds; 1 means delivered first try). Omitted on
	// healthy runs so their snapshots stay byte-identical.
	DeliveryAttempts *LatencySummary `json:"delivery_attempts,omitempty"`
	// Timeline is the per-processor busy/fetch/mgmt series over time.
	Timeline *Timeline `json:"timeline,omitempty"`
}

// Snapshot captures the current state; topN bounds the hot-object
// list (≤0 means 10). Returns nil on a nil Observer.
func (o *Observer) Snapshot(topN int) *Snapshot {
	if o == nil {
		return nil
	}
	if topN <= 0 {
		topN = 10
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	objs := make([]ObjectStat, 0, len(o.objects))
	for _, st := range o.objects {
		objs = append(objs, *st)
	}
	sort.Slice(objs, func(i, j int) bool {
		if objs[i].Bytes != objs[j].Bytes {
			return objs[i].Bytes > objs[j].Bytes
		}
		if objs[i].Fetches != objs[j].Fetches {
			return objs[i].Fetches > objs[j].Fetches
		}
		return objs[i].ID < objs[j].ID
	})
	n := len(objs)
	if n > topN {
		objs = objs[:topN]
	}
	snap := &Snapshot{
		HotObjects:   objs,
		ObjectCount:  n,
		FetchLatency: o.fetch.Summary(),
		TaskWait:     o.wait.Summary(),
		Timeline:     o.tl.snapshot(),
	}
	if o.deliv.Count() > 0 {
		s := o.deliv.Summary()
		snap.DeliveryAttempts = &s
	}
	return snap
}

// WriteHotObjects renders the hot-object report as text: one row per
// object, hottest first, with the latency distributions underneath.
// Each row leads with the object's ID, since objects may share a name.
func (s *Snapshot) WriteHotObjects(w io.Writer) {
	if s == nil {
		return
	}
	fmt.Fprintf(w, "hot objects (%d of %d communicating):\n", len(s.HotObjects), s.ObjectCount)
	fmt.Fprintf(w, "  %6s %-20s %8s %12s %6s %6s %12s\n",
		"id", "object", "fetches", "bytes", "repl", "bcast", "wait (s)")
	for _, o := range s.HotObjects {
		fmt.Fprintf(w, "  %6d %-20s %8d %12d %6d %6d %12.6f\n",
			o.ID, o.Name, o.Fetches, o.Bytes, o.ReplicatedReads, o.Broadcasts, o.WaitSec)
	}
	f, t := s.FetchLatency, s.TaskWait
	fmt.Fprintf(w, "fetch latency: n=%d mean=%.2gs p50=%.2gs p95=%.2gs max=%.2gs\n",
		f.Count, f.MeanSec, f.P50Sec, f.P95Sec, f.MaxSec)
	fmt.Fprintf(w, "task wait:     n=%d mean=%.2gs p50=%.2gs p95=%.2gs max=%.2gs\n",
		t.Count, t.MeanSec, t.P50Sec, t.P95Sec, t.MaxSec)
}
