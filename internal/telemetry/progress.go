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
// hot loop. Reporting is free (one atomic load) when no reporter is
// enabled, so hot paths may post every iteration.
type ProgressUpdate struct {
	// Component identifies the emitting simulator ("beam", "fleet", ...).
	Component string
	// Device and Beam name the campaign when applicable.
	Device string
	Beam   string
	// Phase optionally names a sub-stage (experiment id, grid point, ...).
	Phase string
	// Done and Total measure completion in the component's own units
	// (runs, days, grid points). Total 0 means unknown.
	Done, Total float64
	// Fluence is the particle fluence delivered so far (n/cm²), 0 if not
	// applicable.
	Fluence float64
	// Events counts observed error events (SDC+DUE) so far.
	Events int64
	// Elapsed is the wall time the component has spent so far; used for
	// the ETA estimate.
	Elapsed time.Duration
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

// ReportProgress posts a status update to the active reporter, if any.
func ReportProgress(u ProgressUpdate) {
	p := progressSink.Load()
	if p == nil {
		return
	}
	p.report(u)
}

// progressObserverKey carries a per-campaign progress observer in a context.
type progressObserverKey struct{}

// ContextWithProgress returns a context that routes ReportProgressContext
// posts to fn in addition to the global reporter. It is how a service can
// watch one campaign's progress without intercepting every other campaign
// running in the process: the observer travels with the campaign's context
// into the engine's completion hooks. fn is invoked from worker goroutines
// and must be safe for concurrent use.
func ContextWithProgress(ctx context.Context, fn func(ProgressUpdate)) context.Context {
	return context.WithValue(ctx, progressObserverKey{}, fn)
}

// ReportProgressContext posts a status update to the context's observer (if
// one was attached with ContextWithProgress) and to the global reporter.
// Instrumented hot loops that have a context should prefer this over
// ReportProgress so callers can subscribe per campaign.
func ReportProgressContext(ctx context.Context, u ProgressUpdate) {
	if fn, ok := ctx.Value(progressObserverKey{}).(func(ProgressUpdate)); ok && fn != nil {
		fn(u)
	}
	ReportProgress(u)
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
