package telemetry

import (
	"context"
	"math"
	"strconv"
	"sync/atomic"
	"time"

	"neutronsim/internal/telemetry/trace"
)

// spanStats aggregates the completed executions of one span path.
type spanStats struct {
	count   atomic.Int64
	totalNs atomic.Int64
	minNs   atomic.Int64
	maxNs   atomic.Int64
}

// Span measures the wall time of one phase. Spans started from a context
// that already carries a span nest under it, so the registry accumulates
// hierarchical rollups keyed by slash-joined paths such as
// "core.assess/beam.campaign/beam.runs".
//
// When the context also carries an active trace (internal/telemetry/trace),
// the span opens a matching trace span: the registry keeps the aggregate
// rollup across all requests while the trace records this request's copy.
// Both close together in End.
type Span struct {
	reg   *Registry
	path  string
	start time.Time
	ended atomic.Bool
	tspan *trace.Span // nil unless the context carried a trace
}

type spanCtxKey struct{}

// StartSpan opens a span named name in registry r, nesting under any span
// already in ctx. The returned context carries the new span for children.
func (r *Registry) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	path := name
	if parent, ok := ctx.Value(spanCtxKey{}).(*Span); ok && parent.reg == r {
		path = parent.path + "/" + name
	}
	sp := &Span{reg: r, path: path, start: time.Now()}
	ctx, sp.tspan = trace.StartChild(ctx, name)
	return context.WithValue(ctx, spanCtxKey{}, sp), sp
}

// StartSpan opens a span in the Default registry.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return Default.StartSpan(ctx, name)
}

// End records the span's duration into its path's rollup (and closes the
// matching trace span, if any). Safe to call more than once; only the
// first call records.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	s.tspan.End()
	s.reg.recordSpan(s.path, time.Since(s.start))
}

// SetStage tags the span's trace copy as a well-known pipeline stage
// ("queue", "compile", "run", "merge") for per-job timing breakdowns.
// No-op when no trace is active.
func (s *Span) SetStage(stage string) {
	if s != nil {
		s.tspan.SetStage(stage)
	}
}

// Annotate attaches a key=value attribute to the span's trace copy.
// No-op when no trace is active.
func (s *Span) Annotate(key, value string) {
	if s != nil {
		s.tspan.SetAttr(key, value)
	}
}

// AnnotateInt attaches an integer attribute to the span's trace copy. The
// value is only formatted when a trace is active, so untraced hot paths
// pay nothing.
func (s *Span) AnnotateInt(key string, value int) {
	if s != nil && s.tspan != nil {
		s.tspan.SetAttr(key, strconv.Itoa(value))
	}
}

func (r *Registry) recordSpan(path string, d time.Duration) {
	r.mu.RLock()
	st := r.spans[path]
	r.mu.RUnlock()
	if st == nil {
		r.mu.Lock()
		if st = r.spans[path]; st == nil {
			st = &spanStats{}
			st.minNs.Store(math.MaxInt64)
			st.maxNs.Store(math.MinInt64)
			r.spans[path] = st
		}
		r.mu.Unlock()
	}
	ns := d.Nanoseconds()
	st.count.Add(1)
	st.totalNs.Add(ns)
	for {
		old := st.minNs.Load()
		if ns >= old || st.minNs.CompareAndSwap(old, ns) {
			break
		}
	}
	for {
		old := st.maxNs.Load()
		if ns <= old || st.maxNs.CompareAndSwap(old, ns) {
			break
		}
	}
}
