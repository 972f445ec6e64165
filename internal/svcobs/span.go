// Package svcobs is the request-level observability plane for the
// jaded serving path: per-request lifecycle span trees (jade-span/v1),
// structured logging helpers over log/slog, Prometheus text-format
// exposition of counters/gauges/histograms, and a rolling-window SLO
// tracker with an availability error budget.
//
// Where internal/obsv observes the *simulated* machines in virtual
// time, svcobs observes the *serving* process in wall time; the span
// export renders through internal/trace's Perfetto writer so a
// server-side request trace and a simulator-side run trace open in
// the same UI.
//
// Everything is nil-safe, mirroring internal/obsv: a nil *Trace, nil
// *Span, or nil *SLO turns every method into a no-op, so the serving
// path calls them unconditionally and pays (almost) nothing when the
// plane is disabled.
package svcobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/trace"
)

// SpanSchema tags the span-tree export document.
const SpanSchema = "jade-span/v1"

// TraceHeader is the HTTP header a caller uses to supply a trace ID;
// the server echoes it (supplied or generated) on every response.
const TraceHeader = "X-Jade-Trace"

// NewTraceID returns a fresh 16-hex-char random trace ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on the supported platforms; a zero
		// ID is still a usable correlation key if it somehow does.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// CleanTraceID validates a caller-supplied trace ID: 1-64 chars of
// [A-Za-z0-9._-]. Anything else returns "" (the caller generates one).
func CleanTraceID(id string) string {
	if len(id) == 0 || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return ""
		}
	}
	return id
}

// EchoTrace sets the response's TraceHeader to the request's trace ID,
// or to a fresh one when the request carries no valid ID, and returns
// that ID.
func EchoTrace(w http.ResponseWriter, r *http.Request) string {
	id := CleanTraceID(r.Header.Get(TraceHeader))
	if id == "" {
		id = NewTraceID()
	}
	w.Header().Set(TraceHeader, id)
	return id
}

type spanKey struct{}

// WithSpan returns ctx carrying s as the parent span for the work done
// under ctx; a nil s returns ctx itself.
func WithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFrom returns the span WithSpan put in ctx, nil if none.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// Trace is one request's span tree. All span mutation goes through the
// trace's mutex, so the HTTP goroutine and the worker goroutine can
// grow the same tree concurrently. A nil *Trace disables everything.
type Trace struct {
	id    string
	clock func() time.Time

	mu   sync.Mutex
	root *Span
}

// NewTrace starts an empty trace with the given ID (NewTraceID() when
// empty).
func NewTrace(id string) *Trace {
	if id == "" {
		id = NewTraceID()
	}
	return &Trace{id: id, clock: time.Now}
}

// SetClock substitutes the wall clock; tests pin deterministic spans.
func (t *Trace) SetClock(clock func() time.Time) {
	if t == nil || clock == nil {
		return
	}
	t.clock = clock
}

// ID returns the trace ID ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Root starts (once) and returns the root span. Subsequent calls
// return the existing root regardless of name.
func (t *Trace) Root(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root == nil {
		t.root = &Span{t: t, name: name, start: t.clock()}
	}
	return t.root
}

// Span is one timed phase in a trace. A nil *Span no-ops every method,
// so disabled tracing costs only the nil checks.
type Span struct {
	t        *Trace
	name     string
	start    time.Time
	end      time.Time // zero while open
	attrs    []spanAttr
	children []*Span
}

type spanAttr struct{ key, value string }

// Child starts a sub-span now.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	c := &Span{t: s.t, name: name, start: s.t.clock()}
	s.children = append(s.children, c)
	return c
}

// End closes the span; only the first End sticks.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.end.IsZero() {
		s.end = s.t.clock()
	}
}

// SetAttr attaches (or overwrites) a string attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].key == key {
			s.attrs[i].value = value
			return
		}
	}
	s.attrs = append(s.attrs, spanAttr{key, value})
}

// Doc is the jade-span/v1 export of one trace.
type Doc struct {
	Schema  string   `json:"schema"`
	TraceID string   `json:"trace_id"`
	JobID   string   `json:"job_id,omitempty"`
	Root    *SpanDoc `json:"root"`
}

// SpanDoc is one exported span. Children are in start order; a
// parent's interval covers every child's (open spans and parents that
// ended before a late child are extended at export time), so
// [StartUnixNs, StartUnixNs+DurationSec] nests by construction.
type SpanDoc struct {
	Name        string            `json:"name"`
	StartUnixNs int64             `json:"start_unix_ns"`
	DurationSec float64           `json:"duration_sec"`
	Attrs       map[string]string `json:"attrs,omitempty"`
	Children    []*SpanDoc        `json:"children,omitempty"`
}

// Doc snapshots the trace into its jade-span/v1 document. Open spans
// are reported as ending now; a parent whose recorded end precedes a
// child's end is extended to cover it (this happens when an async
// HTTP response is written before the job it started finishes).
func (t *Trace) Doc(jobID string) *Doc {
	if t == nil || t.root == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.clock()
	return &Doc{Schema: SpanSchema, TraceID: t.id, JobID: jobID, Root: exportSpan(t.root, now)}
}

// exportSpan renders one span (recursively) and returns its doc; the
// doc's end is stretched over every child's.
func exportSpan(s *Span, now time.Time) *SpanDoc {
	end := s.end
	if end.IsZero() {
		end = now
	}
	d := &SpanDoc{Name: s.name, StartUnixNs: s.start.UnixNano()}
	if len(s.attrs) > 0 {
		d.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			d.Attrs[a.key] = a.value
		}
	}
	for _, c := range s.children {
		cd := exportSpan(c, now)
		d.Children = append(d.Children, cd)
		if childEnd := cd.endTime(); childEnd.After(end) {
			end = childEnd
		}
	}
	d.DurationSec = end.Sub(s.start).Seconds()
	if d.DurationSec < 0 {
		d.DurationSec = 0
	}
	return d
}

// endTime reconstructs a span doc's end instant.
func (d *SpanDoc) endTime() time.Time {
	return time.Unix(0, d.StartUnixNs).Add(time.Duration(d.DurationSec * float64(time.Second)))
}

// Phase returns the direct child with the given name (nil if absent):
// the phase-duration accessor access logs and tests use.
func (d *SpanDoc) Phase(name string) *SpanDoc {
	if d == nil {
		return nil
	}
	for _, c := range d.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// PhaseDurations flattens the root's direct children into a
// name → seconds map (last wins on duplicate names).
func (d *Doc) PhaseDurations() map[string]float64 {
	if d == nil || d.Root == nil || len(d.Root.Children) == 0 {
		return nil
	}
	out := make(map[string]float64, len(d.Root.Children))
	for _, c := range d.Root.Children {
		out[c.Name] = c.DurationSec
	}
	return out
}

// NamedSpans flattens the doc into trace.NamedSpan intervals, all on
// one track named after the trace, with times relative to the root
// start — ready for trace.WriteSpansPerfetto.
func (d *Doc) NamedSpans() []trace.NamedSpan {
	if d == nil || d.Root == nil {
		return nil
	}
	origin := d.Root.StartUnixNs
	var out []trace.NamedSpan
	var walk func(sd *SpanDoc, depth int)
	walk = func(sd *SpanDoc, depth int) {
		start := float64(sd.StartUnixNs-origin) / 1e9
		ns := trace.NamedSpan{
			Name:     sd.Name,
			Cat:      "phase",
			Track:    0,
			StartSec: start,
			EndSec:   start + sd.DurationSec,
		}
		if depth == 0 {
			ns.Cat = "request"
			ns.TrackName = "request " + d.TraceID
			ns.Args = map[string]any{"trace_id": d.TraceID, "job_id": d.JobID}
		}
		if len(sd.Attrs) > 0 {
			if ns.Args == nil {
				ns.Args = map[string]any{}
			}
			for k, v := range sd.Attrs {
				ns.Args[k] = v
			}
		}
		out = append(out, ns)
		for _, c := range sd.Children {
			walk(c, depth+1)
		}
	}
	walk(d.Root, 0)
	return out
}

// WritePerfetto writes the doc as Chrome trace-event JSON.
func (d *Doc) WritePerfetto(w io.Writer) error {
	return trace.WriteSpansPerfetto(w, d.NamedSpans())
}
