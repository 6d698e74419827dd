// Package trace provides request-scoped tracing for campaign pipelines:
// per-job trace trees of parented spans with wall-clock timing and string
// attributes, propagated through context.Context and correlated across
// processes via the W3C traceparent header (traceparent.go).
//
// It is the repository's one span system. Every instrumented phase opens
// its span with StartChild and tags it with SetStage, SetAttr and SetInt;
// a trace answers "where did THIS job's 4.2 seconds go" — queue wait, plan
// compile, each engine shard, merge — and the internal/telemetry registry
// keeps only counters, gauges and histograms. Completed traces land in a
// bounded ring buffer (Recorder) so a process keeps recent history without
// unbounded growth.
//
// The package is dependency-free and nil-tolerant by design: every
// operation on a nil *Span is a no-op, and StartChild on a context without
// an active trace returns (ctx, nil), so instrumented code pays one context
// lookup — no allocation — when tracing is off.
package trace

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"strconv"
	"sync"
	"time"
)

// TraceID is the 16-byte W3C trace identifier.
type TraceID [16]byte

// SpanID is the 8-byte W3C span identifier.
type SpanID [8]byte

// IsZero reports whether the ID is all-zero (invalid per W3C).
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is all-zero (invalid per W3C).
func (s SpanID) IsZero() bool { return s == SpanID{} }

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }
func (s SpanID) String() string  { return hex.EncodeToString(s[:]) }

// NewTraceID returns a random non-zero trace ID. IDs need uniqueness, not
// secrecy: they come from math/rand/v2's top-level generator, which the
// runtime seeds and which is safe for concurrent use without a lock.
func NewTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		binary.LittleEndian.PutUint64(id[:8], rand.Uint64())
		binary.LittleEndian.PutUint64(id[8:], rand.Uint64())
	}
	return id
}

// NewSpanID returns a random non-zero span ID.
func NewSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		binary.LittleEndian.PutUint64(id[:], rand.Uint64())
	}
	return id
}

// maxSpans bounds one trace's span count. A beam campaign decomposes into
// hundreds of shards; a runaway instrumentation loop must not turn a job
// record into a memory leak. Spans beyond the bound are dropped and
// counted.
const maxSpans = 2048

// Attr is one key=value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed phase of a trace. All methods are safe for concurrent
// use and are no-ops on a nil receiver.
type Span struct {
	tr     *Trace
	id     SpanID
	parent SpanID
	name   string
	start  time.Time

	mu    sync.Mutex
	end   time.Time // zero until End
	stage string
	attrs []Attr
}

// Trace is one request's span tree. Spans are appended as they start; the
// tree shape lives in the parent links and is materialized by Snapshot.
type Trace struct {
	id   TraceID
	root *Span
	rec  *Recorder

	mu      sync.Mutex
	spans   []*Span
	dropped int
}

// ID returns the trace's identifier.
func (t *Trace) ID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.id
}

// New starts a trace with a root span named name. A non-nil parent links
// the new trace into an incoming W3C trace: the trace ID is inherited and
// the root span is parented to the caller's span ID, so a coordinator
// fanning jobs out to workers sees one tree.
func New(name string, parent *Traceparent) (*Trace, *Span) {
	t := &Trace{}
	var parentSpan SpanID
	if parent != nil && !parent.TraceID.IsZero() {
		t.id = parent.TraceID
		parentSpan = parent.SpanID
	} else {
		t.id = NewTraceID()
	}
	root := t.newSpan(name, parentSpan)
	t.root = root
	return t, root
}

func (t *Trace) newSpan(name string, parent SpanID) *Span {
	sp := &Span{tr: t, id: NewSpanID(), parent: parent, name: name, start: time.Now()}
	t.mu.Lock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		t.mu.Unlock()
		// The span still times itself for its creator; it just won't
		// appear in the snapshot.
		sp.tr = nil
		return sp
	}
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
}

// SetRecorder routes the trace to rec when its root span ends.
func (t *Trace) SetRecorder(rec *Recorder) {
	if t != nil {
		t.rec = rec
	}
}

// ID returns the span's identifier.
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// Trace returns the trace the span belongs to.
func (s *Span) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.tr
}

// Name returns the span's name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// End marks the span finished. Only the first call records; later calls
// are no-ops. Ending a root span completes the trace into its recorder.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.end.IsZero() {
		s.mu.Unlock()
		return
	}
	s.end = time.Now()
	s.mu.Unlock()
	if tr := s.tr; tr != nil && tr.root == s && tr.rec != nil {
		tr.rec.Record(tr)
	}
}

// SetStage tags the span as one well-known pipeline stage ("queue",
// "compile", "run", "merge"). Stage totals are what job status reports
// as its timing breakdown; see Snapshot.Stages.
func (s *Span) SetStage(stage string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.stage = stage
	s.mu.Unlock()
}

// SetAttr attaches (or overwrites) a key=value annotation.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			s.mu.Unlock()
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetInt attaches an integer annotation. The value is formatted only on a
// live span, so untraced hot paths pay nothing.
func (s *Span) SetInt(key string, value int) {
	if s != nil {
		s.SetAttr(key, strconv.Itoa(value))
	}
}

// StartChild opens a child span under s. It is the non-context span API
// used where the parent is held directly (the job queue holds its root
// span across goroutines).
func (s *Span) StartChild(name string) *Span {
	if s == nil || s.tr == nil {
		return nil
	}
	return s.tr.newSpan(name, s.id)
}

type ctxKey struct{}

// NewContext returns a context carrying sp as the current span.
func NewContext(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, sp)
}

// FromContext returns the current span, or nil when ctx carries none.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// StartChild opens a child of the context's current span and returns a
// context carrying the child. Without an active trace it returns
// (ctx, nil) at the cost of one context lookup — instrumentation points
// call it unconditionally.
func StartChild(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.StartChild(name)
	if child == nil {
		return ctx, nil
	}
	return NewContext(ctx, child), child
}
