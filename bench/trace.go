package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jade"
	"repro/internal/metrics"
	"repro/internal/router"
	"repro/internal/serve"
)

// span is one recorded interval at a layer boundary. Name is the layer
// the time belongs to; spans of one op share Op; Parent is the index
// of the span that caused this one, or -1.
//
// A machine's callbacks are too many to record one by one (one per
// task event), so a timed platform records a single span per run with
// Calls > 1, as long as all its callbacks together. Where it lies
// inside its parent is synthetic: the recording code lays such spans
// end to end from the parent's start, so that siblings never overlap
// and the parent's self time comes out as its length minus theirs.
type span struct {
	Name   string `json:"name"`
	Op     int32  `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int32  `json:"calls,omitempty"`
}

// recorder keeps spans in memory until the run ends. now is the clock,
// in nanoseconds from an arbitrary origin; tests inject their own.
type recorder struct {
	now   func() int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	base := time.Now()
	return &recorder{now: func() int64 { return int64(time.Since(base)) }}
}

// begin opens a span and returns its index, which end and child spans
// refer to. Given op -1, a child span takes its parent's op and a root
// span starts an op of its own, numbered by its index.
func (r *recorder) begin(name string, op, parent int) int {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if op < 0 {
		op = len(r.spans)
		if parent >= 0 {
			op = int(r.spans[parent].Op)
		}
	}
	r.spans = append(r.spans, span{Name: name, Op: int32(op), Parent: int32(parent), Start: t, End: t})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) { r.endAs(id, "") }

// endAs closes a span and, given a name, renames it: what a call
// turned out to be is sometimes known only when it returns.
func (r *recorder) endAs(id int, name string) {
	t := r.now()
	r.mu.Lock()
	r.spans[id].End = t
	if name != "" {
		r.spans[id].Name = name
	}
	r.mu.Unlock()
}

// addCoalesced records a timed platform's callbacks as one child span
// of parent, placed at the cursor, and returns the cursor moved past
// it. A parent's cursor starts at the parent's own start.
func (r *recorder) addCoalesced(p *timedPlatform, name string, parent int, cursor int64) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := p.span(name, int(r.spans[parent].Op), parent, cursor)
	r.spans = append(r.spans, s)
	return s.End
}

// start returns when a span began.
func (r *recorder) start(id int) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id].Start
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover. Children may overlap (a hedged
// request has two Submit spans in flight at once), so the cover is the
// union of their intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := s.Start
		for _, k := range kids {
			from, to := max(spans[k].Start, covered), min(spans[k].End, s.End)
			if to > from {
				self[i] -= to - from
				covered = to
			}
		}
	}
	return self
}

// writeSpans writes every slice's spans as one JSON document,
// creating the file's directory if need be.
func writeSpans(path string, recs map[string]*recorder) error {
	doc := struct {
		Schema string            `json:"schema"`
		Slices map[string][]span `json:"slices"`
	}{"jade-bench-spans/v1", map[string][]span{}}
	for name, r := range recs {
		doc.Slices[name] = r.spans
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(doc)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// timedPlatform wraps a machine model and adds up the host time spent
// inside its jade.Platform callbacks. Only outermost calls count: a
// callback the machine triggers from within Drain (TaskEnabled, by way
// of Runtime.TaskDone) is already inside Drain's interval.
//
// Drain, where a machine does nearly all its work, is always timed.
// The per-item callbacks (one per object, task or serial phase) are
// about as cheap as the two clock reads that would time them, so they
// are timed one in itemStride and their total is scaled up; the stride
// is prime so that it does not lock onto an app's power-of-two task
// pattern.
//
// The wrapper forwards the two optional interfaces replay looks for,
// so a wrapped machine behaves exactly like a bare one.
type timedPlatform struct {
	inner jade.Platform
	now   func() int64
	depth int

	drain      int64 // time inside outermost Drain calls
	items      int64 // outermost per-item callbacks
	itemsTimed int64 // ... of which timed
	itemTime   int64 // time inside the timed ones
}

const itemStride = 7

func newTimedPlatform(inner jade.Platform, now func() int64) *timedPlatform {
	return &timedPlatform{inner: inner, now: now}
}

// item runs one per-item callback.
func (p *timedPlatform) item(call func()) {
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > 1 {
		call()
		return
	}
	p.items++
	if p.items%itemStride != 1 {
		call()
		return
	}
	t0 := p.now()
	call()
	p.itemTime += p.now() - t0
	p.itemsTimed++
}

// busy is the host time spent inside the machine: Drain's, plus the
// per-item callbacks' estimated from the timed sample.
func (p *timedPlatform) busy() int64 {
	if p.itemsTimed == 0 {
		return p.drain
	}
	return p.drain + p.itemTime*p.items/p.itemsTimed
}

// span returns the run's callbacks as one coalesced span starting at
// the given time.
func (p *timedPlatform) span(name string, op, parent int, at int64) span {
	return span{Name: name, Op: int32(op), Parent: int32(parent), Start: at, End: at + p.busy(), Calls: int32(p.items)}
}

func (p *timedPlatform) Processors() int { return p.inner.Processors() }

func (p *timedPlatform) Attach(rt *jade.Runtime) { p.item(func() { p.inner.Attach(rt) }) }

func (p *timedPlatform) ObjectAllocated(o *jade.Object) {
	p.item(func() { p.inner.ObjectAllocated(o) })
}

func (p *timedPlatform) TaskCreated(t *jade.Task, enabled bool) {
	p.item(func() { p.inner.TaskCreated(t, enabled) })
}

func (p *timedPlatform) TaskEnabled(t *jade.Task) { p.item(func() { p.inner.TaskEnabled(t) }) }

func (p *timedPlatform) SerialWork(d float64) { p.item(func() { p.inner.SerialWork(d) }) }

func (p *timedPlatform) MainTouches(accs []jade.Access) { p.item(func() { p.inner.MainTouches(accs) }) }

func (p *timedPlatform) ResetStats() { p.item(func() { p.inner.ResetStats() }) }

func (p *timedPlatform) Stats() (r *metrics.Run) {
	p.item(func() { r = p.inner.Stats() })
	return r
}

func (p *timedPlatform) Drain() {
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > 1 {
		p.inner.Drain()
		return
	}
	t0 := p.now()
	p.inner.Drain()
	p.drain += p.now() - t0
}

// Attached forwards graph's freshness check; every machine model
// implements it.
func (p *timedPlatform) Attached() bool {
	c, ok := p.inner.(interface{ Attached() bool })
	return ok && c.Attached()
}

// ReserveCapacity forwards replay's capacity hint to the machines that
// take one.
func (p *timedPlatform) ReserveCapacity(objects, tasks int) {
	if h, ok := p.inner.(interface{ ReserveCapacity(objects, tasks int) }); ok {
		p.item(func() { h.ReserveCapacity(objects, tasks) })
	}
}

// timedBackend wraps a router backend and records one span per Submit,
// named by whether the server answered from its result cache. The
// router hands the trace ID through untouched, so the client puts its
// own span's index there and Submit finds its parent in it.
type timedBackend struct {
	router.Backend
	rec *recorder
	// on gates recording, so one topology serves both halves of the
	// tracing-overhead comparison.
	on *atomic.Bool
}

// Span names of the serving path. A Submit span that returned a
// document is renamed to say whether it was a cache hit.
const (
	spanRoute  = "router.do"
	spanSubmit = "serve.submit"
	spanHit    = "serve.hit"
	spanMiss   = "serve.miss"
)

func (b *timedBackend) Submit(ctx context.Context, spec *serve.JobSpec, sync bool, traceID string) (*serve.JobStatus, error) {
	parent, err := strconv.Atoi(traceID)
	if err != nil || !b.on.Load() {
		return b.Backend.Submit(ctx, spec, sync, traceID)
	}
	id := b.rec.begin(spanSubmit, -1, parent)
	doc, err := b.Backend.Submit(ctx, spec, sync, traceID)
	name := spanSubmit
	if err == nil && doc != nil {
		name = spanMiss
		if doc.CacheHit {
			name = spanHit
		}
	}
	b.rec.endAs(id, name)
	return doc, err
}
