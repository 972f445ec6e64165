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
// machine cycle passes through it — so it avoids container/heap (whose
// interface{} methods box every event) in favor of three value-typed
// sources, each sorted by (time, seq):
//
//   - a monotone FIFO bucket for future events no earlier than its
//     tail. Cascades — each event scheduling the next with
//     After(d, ...) — land here in O(1);
//   - near, a slice sorted descending so the earliest event pops from
//     its end in O(1). Every other event, zero-delay ones included,
//     scans in from that end: message arrivals landing a little before
//     the bucket's tail shift a few entries;
//   - a 4-ary min-heap for the rare insert that would shift more than
//     nearDepth near entries.
//
// Events themselves are pointer-free: a callback is a small handler ID
// into the engine's registry plus one int32 argument, so copying events
// through the three sources never touches a write barrier and the
// garbage collector never scans their storage. Plain func() callbacks
// ride a reserved handler whose argument indexes a side table of
// closures (the only pointer-holding structure, touched only on that
// cold path).
//
// All structures recycle their storage in place, so the steady-state
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

// before orders events by (at, seq).
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// nearDepth bounds how many near entries one insert may shift; an
// event that would land deeper goes to the heap instead.
const nearDepth = 16

// Engine is a discrete-event simulator. The zero value is not usable;
// call New.
type Engine struct {
	// bucket is the monotone FIFO: events later than now are admitted
	// only with times at or after bucketAt (the tail's timestamp), so
	// the FIFO is sorted by (at, seq) by construction.
	bucket   fifo
	bucketAt Time

	// near is sorted by (at, seq) descending, so its earliest event is
	// last and pops in O(1).
	near []event

	// heap is a 4-ary min-heap on (at, seq). Children of node i live
	// at 4i+1..4i+4.
	heap []event

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
	e.bucket.reset()
	e.bucketAt = 0
	e.near = e.near[:0]
	e.heap = e.heap[:0]
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
//
// A later event no earlier than the bucket's tail joins (or seeds) the
// bucket. Any other event scans into near from its earliest end, past
// every entry at a time <= t; it goes to the heap only if that would
// shift more than nearDepth entries.
func (e *Engine) AtCall(t Time, h Handler, arg int32) {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	e.seq++
	ev := event{at: t, seq: e.seq, hid: h, arg: arg}
	if t > e.now && (e.bucket.n == 0 || t >= e.bucketAt) {
		e.bucketAt = t
		e.bucket.push(ev)
		return
	}
	// near descends, so its last nearDepth+1 entries are all <= t when
	// the one at that depth is: the insert would shift too many.
	n := len(e.near)
	if n > nearDepth && e.near[n-1-nearDepth].at <= t {
		e.heapPush(ev)
		return
	}
	i := n
	for i > 0 && e.near[i-1].at <= t {
		i--
	}
	// Appending onto the field itself stores the slice pointer only
	// when the array grows.
	e.near = append(e.near, ev)
	copy(e.near[i+1:], e.near[i:n])
	e.near[i] = ev
}

// Run processes events until the queue is empty and returns the final
// virtual time. Each source holds its events in (at, seq) order, so
// the least of their three heads is the globally next event.
func (e *Engine) Run() Time {
	for {
		// src: 0 = near, 1 = bucket, 2 = heap, -1 = drained.
		src := -1
		var next *event
		if n := len(e.near); n > 0 {
			next, src = &e.near[n-1], 0
		}
		if e.bucket.n > 0 {
			if b := &e.bucket.buf[e.bucket.head]; src < 0 || before(b, next) {
				next, src = b, 1
			}
		}
		if len(e.heap) > 0 {
			if h := &e.heap[0]; src < 0 || before(h, next) {
				src = 2
			}
		}
		var ev event
		switch src {
		case 0:
			n := len(e.near) - 1
			ev = e.near[n]
			e.near = e.near[:n]
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
func (e *Engine) Pending() int { return e.bucket.n + len(e.near) + len(e.heap) }

// heapPush adds ev to the 4-ary min-heap, moving parents down into
// the hole until ev's place is found.
func (e *Engine) heapPush(ev event) {
	e.heap = append(e.heap, ev)
	h := e.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !before(&ev, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// heapPop removes and returns the heap's least event, moving the least
// child up into the hole until the last event's place is found.
func (e *Engine) heapPop() event {
	h := e.heap
	ev := h[0]
	n := len(h) - 1
	last := h[n]
	e.heap = e.heap[:n] // in place: only the length is stored
	if n == 0 {
		return ev
	}
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if before(&h[j], &h[m]) {
				m = j
			}
		}
		if !before(&h[m], &last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = last
	return ev
}
