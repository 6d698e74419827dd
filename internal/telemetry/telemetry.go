// Package telemetry is the observability substrate for the simulators: a
// zero-dependency, race-safe metrics registry (counters, gauges and
// histograms with atomic fast paths), its Prometheus text exposition, an
// HTTP server for /metrics, expvar, traces and pprof, and a throttled
// campaign progress reporter. Wall-time accounting per phase is the job of
// the trace spans in internal/telemetry/trace.
//
// The long beam campaigns of the paper (40+ simulated hours at ROTAX per
// device) are counting experiments: their credibility rests on knowing how
// many particles were delivered, how many interacted, and where the time
// went. Every hot path (beam, core, transport, fleet, jobsim) posts into
// the Default registry; the cmd/* binaries expose it via -obs-addr,
// -metrics-out and -progress.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds named counters, gauges and histograms. All methods are
// safe for concurrent use; metric updates after the first lookup are
// lock-free.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Default is the process-wide registry used by the instrumented packages
// and the cmd/* observability flags.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Count adds n to the named counter in the Default registry.
func Count(name string, n int64) { Default.Counter(name).Add(n) }

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 metric that can move in both directions (rates,
// occupancy levels).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds delta (possibly negative).
func (g *Gauge) Add(delta float64) { addFloat(&g.bits, delta) }

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram buckets — base-2 exponential with inclusive upper bounds, as
// the Prometheus le label reads them. Bucket 0 holds values ≤ 2^-32
// (including zero, negatives and NaN); bucket i in [1, 62] holds
// (2^(i-33), 2^(i-32)], so an exact power of two lands in the bucket its
// value bounds; the last bucket holds everything > 2^30.
const (
	histBuckets = 64
	histMinExp  = -32
)

// Histogram records a distribution of float64 observations with a
// lock-free fast path: an exact count and sum plus the exponential
// buckets, which is all the exposition reads.
type Histogram struct {
	count   atomic.Int64
	sumBits atomic.Uint64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.count.Add(1)
	addFloat(&h.sumBits, v)
	h.buckets[bucketIndex(v)].Add(1)
}

func bucketIndex(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	idx := math.Ilogb(v) - histMinExp + 1
	if math.Float64bits(v)&(1<<52-1) == 0 {
		idx-- // an exact power of two closes its bucket: 2 lands in (1, 2]
	}
	if idx < 0 {
		return 0
	}
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// bucketUpper is the inclusive upper bound of bucket i.
func bucketUpper(i int) float64 {
	return math.Ldexp(1, i+histMinExp)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// addFloat atomically adds v to a float64 stored as bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// sortedKeys returns the map's keys in lexical order, for deterministic
// exposition output.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
