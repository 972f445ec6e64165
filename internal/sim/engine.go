// Package sim provides a small deterministic discrete-event simulation
// engine. The machine models in internal/dash and internal/ipsc schedule
// all their activity (task execution, message delivery, scheduler
// decisions) as events on a shared virtual clock.
//
// Determinism: events at equal times fire in the order they were
// scheduled (FIFO tie-breaking by sequence number), so a simulation run
// is exactly reproducible.
//
// The engine is the hottest path in the repository — every simulated
// machine cycle passes through it — so the implementation avoids the
// standard library's container/heap (whose interface{} methods box
// every event on push and pop) in favor of three value-typed
// structures:
//
//   - a "now" FIFO holding events scheduled at exactly the current
//     time. Zero-delay scheduling — a completion handler immediately
//     enqueuing the next dispatch — is a dominant machine-model
//     pattern, and these events never touch the heap;
//   - a same-time FIFO bucket holding events that share one (usually
//     future) timestamp. Cascades — each event scheduling the next
//     with After(d, ...) — land here;
//   - a 4-ary min-heap ordered by (time, seq) for everything else,
//     whose entries are pointer-free keys: the callback payloads live
//     in a separate slab indexed by slot, so sift swaps move 24-byte
//     scalar structs and never trigger write barriers. Entries
//     scheduled at the same timestamp in one burst chain onto a single
//     heap entry through the slab's next links, making the burst O(1)
//     per event.
//
// Events themselves are pointer-free: a callback is a small handler ID
// into the engine's registry plus one int32 argument, so copying events
// through the FIFOs, slab, and heap never touches a write barrier and
// the garbage collector never scans any queue storage. Plain func()
// callbacks ride a reserved handler whose argument indexes a side
// table of closures (the only pointer-holding structure, touched only
// on that cold path).
//
// All structures recycle their slots in place, so the steady-state
// schedule/fire cycle performs zero heap allocations.
package sim

// Time is virtual time in seconds.
type Time float64

// Handler identifies a callback registered with RegisterHandler.
// Events store a Handler plus an int32 argument instead of a func
// value, keeping every queue structure pointer-free.
type Handler int32

// hClosure is the reserved handler that runs a plain func() callback;
// its argument indexes the engine's closure side table.
const hClosure Handler = 0

// event is a scheduled callback — a registered handler applied to one
// int32 argument. Events are ordered by (at, seq): earlier times
// first, and FIFO among equal times.
type event struct {
	at  Time
	seq uint64
	hid Handler
	arg int32
}

// fifo is a power-of-two circular buffer of events, recycled in place.
type fifo struct {
	buf  []event
	head int
	n    int
}

func (f *fifo) push(ev event) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = ev
	f.n++
}

func (f *fifo) pop() event {
	ev := f.buf[f.head]
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return ev
}

// reset empties the buffer, keeping its storage.
func (f *fifo) reset() { f.head, f.n = 0, 0 }

// grow doubles the buffer, re-linearizing live entries at the front.
func (f *fifo) grow() {
	old := f.buf
	if len(old) == 0 {
		f.buf = make([]event, 8)
		f.head = 0
		return
	}
	grown := make([]event, 2*len(old))
	for i := 0; i < f.n; i++ {
		grown[i] = old[(f.head+i)&(len(old)-1)]
	}
	f.buf = grown
	f.head = 0
}

// heapEntry is one pointer-free heap node: the (at, seq) ordering key
// of a FIFO chain of events sharing the timestamp at, with chainHead
// indexing the chain's first slot in the slab. Chains hold seq runs
// that never interleave with another same-time entry's run (a chain
// only grows while it is the most recent heap push target), so
// ordering entries by their head seq orders every chained event.
type heapEntry struct {
	at        Time
	seq       uint64
	chainHead int32
}

// slot is one slab cell: an event payload plus its seq (needed to
// re-key the heap entry when the chain head pops) and the chain link.
type slot struct {
	seq  uint64
	hid  Handler
	arg  int32
	next int32
}

// entryLess orders heap entries by (at, seq).
func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a discrete-event simulator. The zero value is not usable;
// call New.
type Engine struct {
	// nowq holds events scheduled at exactly the current time. Its
	// entries are always at e.now: the globally next event can never be
	// earlier, so now cannot advance while any remain.
	nowq fifo

	// bucket is the monotone FIFO: events are admitted only with times
	// at or after bucketAt (the tail's timestamp), so the FIFO is
	// sorted by (at, seq) by construction.
	bucket   fifo
	bucketAt Time

	// entries is a 4-ary min-heap on (at, seq). Children of node i
	// live at 4i+1..4i+4. Each entry is a chain of one or more events
	// at the same timestamp; heapN counts the chained events.
	entries []heapEntry
	slots   []slot
	free    []int32
	heapN   int

	// lastAt/lastTail remember the most recent heap push so a burst of
	// pushes at one timestamp appends to its chain in O(1). lastTail
	// is -1 when there is no valid append target.
	lastAt   Time
	lastTail int32

	// handlers is the callback registry events index into; index 0 is
	// the closure adapter. closures and closureFree are the side table
	// for plain func() events.
	handlers    []func(int32)
	closures    []func()
	closureFree []int32

	now Time
	seq uint64
}

// New returns an empty engine with the clock at zero. Storage starts
// empty and doubles on demand: short replay runs construct many
// engines, so paying a handful of amortized growth steps beats
// pre-sizing every engine for the largest run.
func New() *Engine {
	e := &Engine{}
	e.handlers = append(e.handlers, e.runClosure)
	e.Reset()
	return e
}

// Reset empties the engine and sets the clock back to zero, keeping
// the storage of its queues and the handler registry: a reset engine
// fires the same events in the same order as a new one with the same
// handlers registered. Pending events and closures are dropped.
func (e *Engine) Reset() {
	e.nowq.reset()
	e.bucket.reset()
	e.bucketAt = 0
	e.entries = e.entries[:0]
	e.slots = e.slots[:0]
	e.free = e.free[:0]
	e.heapN = 0
	e.lastAt, e.lastTail = 0, -1
	clear(e.closures)
	e.closures = e.closures[:0]
	e.closureFree = e.closureFree[:0]
	e.now, e.seq = 0, 0
}

// RegisterHandler adds h to the engine's callback registry and returns
// its Handler ID for use with AtCall and Processor.SubmitCall. Machines
// register each hot-path callback once at construction; events then
// carry only the ID and an int32 argument, staying pointer-free.
func (e *Engine) RegisterHandler(h func(int32)) Handler {
	e.handlers = append(e.handlers, h)
	return Handler(len(e.handlers) - 1)
}

// Invoke calls registered handler h with arg immediately (outside the
// event loop). It lets machine code share one code path between direct
// calls and scheduled deliveries of the same handler.
func (e *Engine) Invoke(h Handler, arg int32) { e.handlers[h](arg) }

// runClosure is the reserved handler backing At: it pops the closure
// from the side table (freeing its slot for reuse) and calls it.
func (e *Engine) runClosure(idx int32) {
	fn := e.closures[idx]
	e.closures[idx] = nil
	e.closureFree = append(e.closureFree, idx)
	fn()
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at virtual time t. Scheduling in the past
// (t < Now) panics: it indicates a bug in a machine model.
//
// Fast paths: an event at the current time joins the now queue; an
// event no earlier than the monotone bucket's tail joins (or seeds)
// the bucket. Only an event that would break the bucket's sorted
// order falls through to a heap push.
func (e *Engine) At(t Time, fn func()) {
	var idx int32
	if n := len(e.closureFree); n > 0 {
		idx = e.closureFree[n-1]
		e.closureFree = e.closureFree[:n-1]
		e.closures[idx] = fn
	} else {
		e.closures = append(e.closures, fn)
		idx = int32(len(e.closures) - 1)
	}
	e.AtCall(t, hClosure, idx)
}

// After schedules fn to run d seconds after the current time.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// AtCall schedules registered handler h applied to arg at virtual time
// t. It is the pointer-free counterpart of At for callers that would
// otherwise build a closure per event: the event carries only the
// handler ID and the argument, so scheduling touches neither the heap
// allocator nor a write barrier. Ordering is identical to At.
func (e *Engine) AtCall(t Time, h Handler, arg int32) {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	e.seq++
	if t == e.now {
		e.nowq.push(event{at: t, seq: e.seq, hid: h, arg: arg})
		return
	}
	if e.bucket.n == 0 || t >= e.bucketAt {
		e.bucketAt = t
		e.bucket.push(event{at: t, seq: e.seq, hid: h, arg: arg})
		return
	}
	e.heapPush(t, h, arg)
}

// Run processes events until the queue is empty and returns the final
// virtual time.
//
// Correctness of the three-structure pop: each structure holds its
// events in seq order (the FIFOs by construction, the heap by its
// (at, seq) invariant with chains holding non-interleaved seq runs),
// so comparing the three heads by (at, seq) always selects the
// globally next event. The now queue's entries are at the current
// time, which no pending event precedes; they lose the comparison
// only to a same-time event scheduled earlier that already sat in the
// bucket or heap before now advanced to its timestamp.
func (e *Engine) Run() Time {
	for {
		// Select the source holding the minimal (at, seq) head.
		// src: 0 = now queue, 1 = bucket, 2 = heap, -1 = drained.
		src := -1
		var at Time
		var seq uint64
		if e.nowq.n > 0 {
			nr := &e.nowq.buf[e.nowq.head]
			at, seq, src = nr.at, nr.seq, 0
		}
		if e.bucket.n > 0 {
			r := &e.bucket.buf[e.bucket.head]
			if src < 0 || r.at < at || (r.at == at && r.seq < seq) {
				at, seq, src = r.at, r.seq, 1
			}
		}
		if len(e.entries) > 0 {
			h := &e.entries[0]
			if src < 0 || h.at < at || (h.at == at && h.seq < seq) {
				src = 2
			}
		}
		var ev event
		switch src {
		case 0:
			ev = e.nowq.pop()
		case 1:
			ev = e.bucket.pop()
		case 2:
			ev = e.heapPop()
		default:
			return e.now
		}
		e.now = ev.at
		e.handlers[ev.hid](ev.arg)
	}
}

// Pending reports the number of events still queued.
func (e *Engine) Pending() int { return e.heapN + e.nowq.n + e.bucket.n }

// ---- slab-backed 4-ary min-heap of same-time chains ----

// allocSlot takes a free slab cell, growing the slab when none is
// free.
func (e *Engine) allocSlot() int32 {
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free = e.free[:n-1]
		return s
	}
	e.slots = append(e.slots, slot{})
	return int32(len(e.slots) - 1)
}

// heapPush schedules one event at time t (seq is e.seq, already
// advanced by the caller). A push at the same timestamp as the
// previous one appends to that entry's chain in O(1); otherwise a new
// entry sifts up through the pointer-free key heap.
func (e *Engine) heapPush(t Time, h Handler, arg int32) {
	s := e.allocSlot()
	e.slots[s] = slot{seq: e.seq, hid: h, arg: arg, next: -1}
	e.heapN++
	if e.lastTail >= 0 && e.lastAt == t {
		e.slots[e.lastTail].next = s
		e.lastTail = s
		return
	}
	e.lastAt, e.lastTail = t, s
	// Appending onto the field itself stores the slice pointer only
	// when the array grows; a local copy written back would store it
	// (behind a write barrier) on every push.
	e.entries = append(e.entries, heapEntry{at: t, seq: e.seq, chainHead: s})
	ks := e.entries
	i := len(ks) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !entryLess(ks[i], ks[p]) {
			break
		}
		ks[i], ks[p] = ks[p], ks[i]
		i = p
	}
}

// heapPop removes and returns the globally next heap event. Popping a
// chained event is O(1): the root entry re-keys to the chain's next
// node, which cannot break the heap invariant (any same-time child
// entry holds a strictly later seq run). Only an emptied chain removes
// its entry and sifts.
func (e *Engine) heapPop() event {
	root := &e.entries[0]
	s := root.chainHead
	sl := &e.slots[s]
	ev := event{at: root.at, seq: sl.seq, hid: sl.hid, arg: sl.arg}
	next := sl.next
	e.free = append(e.free, s)
	e.heapN--
	if next >= 0 {
		root.chainHead = next
		root.seq = e.slots[next].seq
		return ev
	}
	if e.lastTail == s {
		// The chain being appended to just emptied; its tail slot is
		// recycled, so it is no longer a valid append target.
		e.lastTail = -1
	}
	ks := e.entries
	n := len(ks) - 1
	ks[0] = ks[n]
	ks = ks[:n]
	e.entries = e.entries[:n] // in place: only the length is stored
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entryLess(ks[j], ks[m]) {
				m = j
			}
		}
		if !entryLess(ks[m], ks[i]) {
			break
		}
		ks[i], ks[m] = ks[m], ks[i]
		i = m
	}
	return ev
}
