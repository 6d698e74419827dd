package telemetry

import "time"

// ObserveSince records the elapsed seconds since start — the one idiom
// every duration histogram in the codebase uses, so call sites don't
// hand-roll time.Since(start).Seconds().
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}
