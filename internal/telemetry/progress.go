package telemetry

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// ProgressUpdate is one campaign status report posted by an instrumented
// hot loop. Reporting is free (one atomic load and one context lookup)
// when no reporter or observer is attached, so hot paths may post every
// iteration. Its JSON encoding is the wire form of neutrond's progress:
// the progress member of GET /v1/jobs/{id} and the data of each progress
// frame on /v1/jobs/{id}/events.
type ProgressUpdate struct {
	// Component identifies the emitting simulator ("beam", "fleet", ...).
	Component string `json:"component,omitempty"`
	// Device and Beam name the campaign when applicable.
	Device string `json:"-"`
	Beam   string `json:"-"`
	// Phase optionally names a sub-stage (experiment id, grid point, ...).
	Phase string `json:"-"`
	// Done and Total measure completion in the component's own units
	// (runs, days, grid points). Total 0 means unknown.
	Done  float64 `json:"done"`
	Total float64 `json:"total"`
	// Fluence is the particle fluence delivered so far (n/cm²), 0 if not
	// applicable.
	Fluence float64 `json:"fluence,omitempty"`
	// Events counts observed error events (SDC+DUE) so far.
	Events int64 `json:"events,omitempty"`
	// Elapsed is the wall time the component has spent so far; used for
	// the ETA estimate.
	Elapsed time.Duration `json:"-"`
}

// progressPrinter serializes throttled status lines to one writer.
type progressPrinter struct {
	mu       sync.Mutex
	w        io.Writer
	interval time.Duration
	last     time.Time
}

var progressSink atomic.Pointer[progressPrinter]

// EnableProgress routes ReportProgress updates to w, printing at most one
// line per interval per component burst (final updates always print).
func EnableProgress(w io.Writer, interval time.Duration) {
	progressSink.Store(&progressPrinter{w: w, interval: interval})
}

// DisableProgress stops progress reporting.
func DisableProgress() { progressSink.Store(nil) }

// progressObserverKey carries a per-campaign progress observer in a context.
type progressObserverKey struct{}

// ContextWithProgress returns a context that routes ReportProgress posts
// to fn in addition to the printer. It is how a service can watch one
// campaign's progress without intercepting every other campaign running in
// the process: the observer travels with the campaign's context into the
// engine's completion hooks. fn is invoked from worker goroutines and must
// be safe for concurrent use.
func ContextWithProgress(ctx context.Context, fn func(ProgressUpdate)) context.Context {
	return context.WithValue(ctx, progressObserverKey{}, fn)
}

// ReportProgress posts a status update to the context's observer, if one
// was attached with ContextWithProgress, and to the printer EnableProgress
// set up, if any.
func ReportProgress(ctx context.Context, u ProgressUpdate) {
	if fn, ok := ctx.Value(progressObserverKey{}).(func(ProgressUpdate)); ok && fn != nil {
		fn(u)
	}
	if p := progressSink.Load(); p != nil {
		p.report(u)
	}
}

func (p *progressPrinter) report(u ProgressUpdate) {
	final := u.Total > 0 && u.Done >= u.Total
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	if !final && now.Sub(p.last) < p.interval {
		return
	}
	p.last = now
	line := "progress: " + u.Component
	if u.Device != "" {
		line += " " + u.Device
	}
	if u.Beam != "" {
		line += " @ " + u.Beam
	}
	if u.Phase != "" {
		line += " [" + u.Phase + "]"
	}
	if u.Total > 0 {
		line += fmt.Sprintf(" %5.1f%%", 100*u.Done/u.Total)
	}
	if u.Fluence > 0 {
		line += fmt.Sprintf(" fluence=%.3g n/cm²", u.Fluence)
	}
	line += fmt.Sprintf(" events=%d", u.Events)
	if eta, ok := etaFor(u); ok {
		line += " eta=" + eta.Round(time.Second).String()
	}
	if final {
		line += " done"
	}
	fmt.Fprintln(p.w, line)
}

// etaFor estimates remaining wall time from the completed fraction.
func etaFor(u ProgressUpdate) (time.Duration, bool) {
	if u.Total <= 0 || u.Done <= 0 || u.Done >= u.Total || u.Elapsed <= 0 {
		return 0, false
	}
	frac := u.Done / u.Total
	return time.Duration(float64(u.Elapsed) * (1 - frac) / frac), true
}
