package machine

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/obsv"
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
// Record is the one path of the event stream to the sink; a fact only
// the fold reads builds no event.

// Record passes e to the sink, if one is attached.
func (c *Core) Record(e obsv.Event) {
	if c.Sink != nil {
		c.Sink.Record(e)
	}
}

// charged folds sec seconds of task management.
func (c *Core) charged(sec float64) { c.Metrics.TaskMgmtTime += sec }

// created folds a task's creation at the machine's price.
func (c *Core) created() {
	c.ledger.ran = append(c.ledger.ran, false)
	c.Metrics.TaskMgmtTime += c.createSec
}

// Dispatched folds the start of task on processor p, whose target
// processor is target: mgmt seconds of task management and work
// seconds of execution.
func (c *Core) Dispatched(p, task, target int, mgmt, work float64) {
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
}

// stalled folds a task's fetch stall from at to end, where the machine
// measures stalls (Params.FetchStall).
func (c *Core) stalled(at, end float64) {
	if c.ledger.stall {
		c.Metrics.TaskLatency += end - at
	}
}

// Accessed folds a shared-memory access to bytes of an object,
// satisfied from remote memory or locally; cached marks a hit in the
// processor's cache.
func (c *Core) Accessed(bytes int, remote, cached bool) {
	if remote {
		c.Metrics.RemoteBytes += int64(bytes)
	} else {
		c.Metrics.LocalBytes += int64(bytes)
	}
	if cached {
		c.ledger.cacheHits += int64(bytes)
	}
}

// Invalidated folds an injected invalidation storm forcing a cache hit
// back to memory.
func (c *Core) Invalidated() { c.Metrics.FaultInvalidations++ }

// Broadcasted folds an adaptive broadcast of bytes to every other
// processor: one message to each.
func (c *Core) Broadcasted(bytes int) {
	c.Metrics.BroadcastCount++
	if others := int64(len(c.CPUs) - 1); others > 0 {
		c.Metrics.MsgBytes += int64(bytes) * others
		c.Metrics.MsgCount += others
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

// Replied folds the reply to a task's fetch request: it arrives with
// objs objects in bytes, requested at at and landing at end; each
// object is a read copy when replicated.
func (c *Core) Replied(bytes, objs int, replicated bool, at, end float64) {
	c.Arrived(bytes, objs)
	c.Metrics.MsgsCoalesced += int64(objs - 1)
	c.fetched(objs, replicated, at, end)
}

// Pushed folds an update of bytes pushed to a processor that did not
// request it (§6).
func (c *Core) Pushed(bytes int) {
	c.Arrived(bytes, 1)
	c.ledger.pushes += int64(bytes)
}

// Got folds the data leg of a one-sided get landing with objs objects
// in bytes. A task's get (task) was issued at at and lands at end, and
// its objects are read copies.
func (c *Core) Got(bytes, objs int, task bool, at, end float64) {
	c.Arrived(bytes, objs)
	c.Metrics.RemoteGets += int64(objs)
	c.Metrics.RemoteBytes += int64(bytes)
	c.aggregated(objs)
	if task {
		c.fetched(objs, true, at, end)
	}
}

// Put folds a one-sided write-back landing home with objs objects in
// bytes.
func (c *Core) Put(bytes, objs int) {
	c.Arrived(bytes, objs)
	c.Metrics.RemotePuts += int64(objs)
	c.aggregated(objs)
}

// fetched folds the objs objects a task's fetch message carries, each
// a read copy when replicated, and under FetchStall each adding the
// message's latency, one object at a time as the machine counts them.
func (c *Core) fetched(objs int, replicated bool, at, end float64) {
	if replicated {
		c.Metrics.ReplicatedReads += int64(objs)
	}
	if c.ledger.stall {
		for range objs {
			c.Metrics.ObjectLatency += end - at
		}
	}
}

// aggregated folds a one-sided message carrying ops operations, which
// saves the headers of all but one (Params.HeaderBytes).
func (c *Core) aggregated(ops int) {
	if ops > 1 {
		c.Metrics.AggregatedMsgs++
		c.Metrics.AggBenefitBytes += int64((ops - 1) * c.ledger.header)
	}
}

// resetMetrics restarts the measurements, keeping ProcBusy's storage.
func (c *Core) resetMetrics() {
	c.Metrics = metrics.Run{Procs: len(c.CPUs), ProcBusy: c.Metrics.ProcBusy[:0]}
	c.ledger.cacheHits, c.ledger.pushes = 0, 0
}

// Unfetched returns the bytes the fold counted since the last reset
// that no Fetch or Broadcast event carries, so an obsv.Observer's
// per-object bytes leave them out: cache hits (DASH's LocalBytes) and
// update pushes (iPSC's MsgBytes).
func (c *Core) Unfetched() (cacheHits, pushes int64) {
	return c.ledger.cacheHits, c.ledger.pushes
}

// ledger holds what the fold needs beyond Metrics: two parameters of
// the machine, the tallies of the conservation laws, which, unlike
// Metrics, run on across ResetStats, and the bytes Unfetched reports.
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

	// cacheHits and pushes restart with the measurements (Unfetched).
	cacheHits, pushes int64
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
