package machine

import (
	"fmt"

	"repro/internal/jade"
	"repro/internal/metrics"
	"repro/internal/obsv"
	"repro/internal/sim"
)

// The conservation laws Drain enforces, named in its panics.
const (
	lawTasks    = "every created task runs exactly once"
	lawMessages = "every transmission is delivered, dropped or a discarded duplicate"
	lawBusy     = "busy ≤ elapsed on every processor"
)

// The run's one accounting point. A machine, or for a transmission
// the kit's transport, describes what happened through the methods
// below, typed and small enough to inline, and they fold it into
// Metrics and the ledger; apart from them, Stats (ExecTime, ProcBusy)
// and the resets, no code writes Metrics. Each fact is folded where
// it is charged, so float sums add the same values in the same order.
// The kit is the event stream's one writer: a fold also records its
// fact's events, and every emitter builds one only past the nil-sink test.

// charged folds sec seconds of task management.
func (c *Core) charged(sec float64) { c.Metrics.TaskMgmtTime += sec }

// created folds a task's creation at the machine's price.
func (c *Core) created() {
	c.ledger.ran = append(c.ledger.ran, false)
	c.Metrics.TaskMgmtTime += c.createSec
}

// Dispatched folds the start of task on processor p, whose target
// processor is target: mgmt seconds of task management and work
// seconds of execution, an ExecStart (flagged if p stole the task).
func (c *Core) Dispatched(p, task, target int, stole bool, mgmt, work float64) {
	l, r := &c.ledger, &c.Metrics
	if task < 0 || task >= len(l.ran) || l.ran[task] {
		l.reruns++
	} else {
		l.ran[task] = true
		l.runs++
	}
	r.TaskMgmtTime += mgmt
	r.TaskCount++
	if p == target {
		r.TasksOnTarget++
	}
	r.TaskExecTotal += work
	if c.Sink != nil {
		c.Sink.Record(obsv.Event{Kind: obsv.ExecStart, Flag: stole, Proc: p, Task: task, At: float64(c.Eng.Now())})
	}
}

// Finished records the end of task's execution on processor p, an
// ExecEnd: its CPU span from start to now, or for a staged task, whose
// Segment events carry its time, a flagged instant now.
func (c *Core) Finished(p, task int, start sim.Time, staged bool) {
	if c.Sink != nil {
		if staged {
			start = c.Eng.Now()
		}
		c.Sink.Record(obsv.Event{Kind: obsv.ExecEnd, Flag: staged, Proc: p, Task: task, At: float64(start),
			End: float64(c.Eng.Now())})
	}
}

// Enabled records task entering DASH's ready queues, on no processor.
func (c *Core) Enabled(task int) {
	if c.Sink != nil {
		c.enabled(task)
	}
}

// enabled builds and records Enabled's event. It stays a call so that
// Enabled, only a nil-sink test around it, inlines.
//
//go:noinline
func (c *Core) enabled(task int) {
	c.Sink.Record(obsv.Event{Kind: obsv.Enabled, Proc: -1, Task: task, At: float64(c.Eng.Now())})
}

// SegmentRan records one segment of staged task on p, from start to end.
func (c *Core) SegmentRan(p, task int, start, end sim.Time) {
	if c.Sink != nil {
		c.Sink.Record(obsv.Event{Kind: obsv.Segment, Proc: p, Task: task, At: float64(start), End: float64(end)})
	}
}

// stalled folds a task's fetch stall from at to end, where the machine
// measures stalls (Params.FetchStall).
func (c *Core) stalled(at, end float64) {
	if c.ledger.stall {
		c.Metrics.TaskLatency += end - at
	}
}

// Accessed folds processor p's shared-memory access to object o,
// which took cost seconds: a line from local or remote memory
// (LocalLine, RemoteLine), or a read served in place (Hit).
func (c *Core) Accessed(p int, o *jade.Object, k obsv.FetchClass, cost float64) {
	if k == obsv.RemoteLine {
		c.Metrics.RemoteBytes += int64(o.Size)
	} else {
		c.Metrics.LocalBytes += int64(o.Size)
	}
	if c.Sink != nil {
		c.fetch(p, o, k, 0, cost)
	}
}

// Invalidated folds an injected invalidation storm forcing a cache hit
// back to memory.
func (c *Core) Invalidated() { c.Metrics.FaultInvalidations++ }

// Broadcasted folds processor p's adaptive broadcast of version v of
// object o to every other processor: one message to each.
func (c *Core) Broadcasted(p int, o *jade.Object, v jade.Version) {
	c.Metrics.BroadcastCount++
	if others := int64(len(c.CPUs) - 1); others > 0 {
		c.Metrics.MsgBytes += int64(o.Size) * others
		c.Metrics.MsgCount += others
	}
	if c.Sink != nil {
		c.Sink.Record(obsv.Event{Kind: obsv.Broadcast, Proc: p, Obj: int(o.ID), Name: o.Name, Bytes: o.Size,
			N: int(v), At: float64(c.Eng.Now())})
	}
}

// sent folds a transmission of bytes of payload leaving its sender.
// The transport calls it where it charges the sender's NIC or bus,
// once per attempt and once per in-flight duplicate.
func (c *Core) sent(bytes int) { c.ledger.sent.add(bytes) }

// dropped folds a transmission lost in flight, which its sender
// retransmits.
func (c *Core) dropped(bytes int) {
	c.ledger.dropped.add(bytes)
	c.Metrics.MsgDropped++
	c.Metrics.MsgRetransmits++
}

// duplicated folds an in-flight duplicate of a transmission, which its
// receiver discards.
func (c *Core) duplicated(bytes int) {
	c.ledger.duplicated.add(bytes)
	c.Metrics.MsgDuplicates++
}

// Arrived folds a message of bytes of payload reaching its receiver
// with objs shared objects: none for a task assignment, completion
// notice or fetch request, which count toward no message total.
func (c *Core) Arrived(bytes, objs int) {
	c.ledger.delivered.add(bytes)
	if objs > 0 {
		c.Metrics.MsgCount++
		c.Metrics.MsgBytes += int64(bytes)
	}
}

// Replied folds the reply to a task's fetch request landing batch on
// processor p in one message, requested at at and landing at end; each
// object is a read copy when replicated (Replica, else Copy).
func (c *Core) Replied(p int, batch []jade.Access, replicated bool, at, end float64) {
	k := obsv.Copy
	if replicated {
		k = obsv.Replica
	}
	c.Arrived(c.fetched(p, batch, k, at, end), len(batch))
	c.Metrics.MsgsCoalesced += int64(len(batch) - 1)
}

// Pushed folds an update landing batch on processor p, which did not
// request it (§6).
func (c *Core) Pushed(p int, batch []jade.Access) {
	now := float64(c.Eng.Now())
	c.Arrived(c.fetched(p, batch, obsv.Push, now, now), len(batch))
}

// Got folds the data leg of a task's one-sided get landing batch on
// processor p, issued at at and landing at end: its objects are read
// copies.
func (c *Core) Got(p int, batch []jade.Access, at, end float64) {
	c.got(c.fetched(p, batch, obsv.Replica, at, end), len(batch))
}

// got folds a one-sided get's data leg landing with objs objects in
// bytes.
func (c *Core) got(bytes, objs int) {
	c.Arrived(bytes, objs)
	c.Metrics.RemoteGets += int64(objs)
	c.Metrics.RemoteBytes += int64(bytes)
	c.aggregated(objs)
}

// Put folds a one-sided write-back landing batch at its home.
func (c *Core) Put(batch []jade.Access) {
	c.Arrived(Payload(batch), len(batch))
	c.Metrics.RemotePuts += int64(len(batch))
	c.aggregated(len(batch))
}

// fetched returns the bytes of batch's objects, which reach processor
// p in one transfer of class k, requested at at and landing at end, and
// passes the sink each object's Fetch event. In a task's fetch
// (Replica, Copy) each Replica is a replicated read, and under
// FetchStall each object adds the transfer's latency.
func (c *Core) fetched(p int, batch []jade.Access, k obsv.FetchClass, at, end float64) int {
	if (k == obsv.Replica || k == obsv.Copy) && c.ledger.stall {
		for range batch {
			c.Metrics.ObjectLatency += end - at
		}
	}
	if k == obsv.Replica {
		c.Metrics.ReplicatedReads += int64(len(batch))
	}
	if c.Sink != nil {
		for _, a := range batch {
			c.fetch(p, a.Obj, k, at, end)
		}
	}
	return Payload(batch)
}

// Payload returns the bytes of batch's objects.
func Payload(batch []jade.Access) int {
	n := 0
	for _, a := range batch {
		n += a.Obj.Size
	}
	return n
}

// fetch passes the sink the Fetch event of object o reaching
// processor p by a transfer of class k.
func (c *Core) fetch(p int, o *jade.Object, k obsv.FetchClass, at, end float64) {
	c.Sink.Record(obsv.Event{Kind: obsv.Fetch, Class: k, Proc: p, Obj: int(o.ID), Name: o.Name, Bytes: o.Size,
		At: at, End: end})
}

// aggregated folds a one-sided message carrying ops operations, which
// saves the headers of all but one (Params.HeaderBytes).
func (c *Core) aggregated(ops int) {
	if ops > 1 {
		c.Metrics.AggregatedMsgs++
		c.Metrics.AggBenefitBytes += int64((ops - 1) * c.ledger.header)
	}
}

// ledger holds what the fold needs beyond Metrics: two parameters of
// the machine, and the tallies of the conservation laws, which, unlike
// Metrics, run on across ResetStats.
type ledger struct {
	// stall makes the fold sum fetch latencies (Params.FetchStall);
	// header is the wire header a one-sided message carrying several
	// operations saves per extra one (Params.HeaderBytes).
	stall  bool
	header int

	// ran records, per created task, whether it was dispatched; runs
	// counts those dispatches and reruns the dispatches of tasks that
	// had already run or were never created.
	ran          []bool
	runs, reruns int

	sent, delivered, dropped, duplicated tally
}

// tally counts messages and their payload bytes.
type tally struct{ n, bytes int64 }

func (t *tally) add(bytes int) {
	t.n++
	t.bytes += int64(bytes)
}

// reset empties the ledger, keeping its storage.
func (l *ledger) reset() { *l = ledger{ran: l.ran[:0]} }

// check panics, naming the law, if r or the tallies break one of the
// conservation laws.
func (l *ledger) check(r *metrics.Run) {
	if l.runs != len(l.ran) {
		panic(fmt.Sprintf("machine: engine emptied with %d of %d created tasks never dispatched: %s",
			len(l.ran)-l.runs, len(l.ran), lawTasks))
	}
	if l.reruns > 0 {
		panic(fmt.Sprintf("machine: %d dispatches of tasks already run or never created: %s", l.reruns, lawTasks))
	}
	out := tally{l.delivered.n + l.dropped.n + l.duplicated.n,
		l.delivered.bytes + l.dropped.bytes + l.duplicated.bytes}
	if out != l.sent {
		panic(fmt.Sprintf("machine: engine emptied with %d transmissions (%d bytes) sent and %d (%d bytes) "+
			"delivered, dropped or discarded: %s", l.sent.n, l.sent.bytes, out.n, out.bytes, lawMessages))
	}
	if bad := r.OverBusy(); len(bad) > 0 {
		p := bad[0]
		panic(fmt.Sprintf("machine: processor %d busy %gs of %gs elapsed: %s", p, r.ProcBusy[p], r.ExecTime, lawBusy))
	}
}
