package plan

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"neutronsim/internal/device"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/telemetry"
)

// DefaultCapacity bounds the Shared cache. A plan for the default 20k
// calibration budget, exact or biased, is one 625 KiB table of slots, so
// the default keeps the cache near 40 MiB; neutrond exposes
// -plan-cache-entries to tune it (SetCapacity).
const DefaultCapacity = 64

// Cache memoizes compiled campaign plans under their canonical keys with
// LRU eviction and singleflight coalescing: concurrent requests for the
// same key compile once and share the result. Entries never expire —
// a plan is a pure function of its key, so it can only become wrong if
// the physics changes, which is a new binary, not a new request.
type Cache struct {
	reg       *telemetry.Registry
	hits      *telemetry.Counter
	misses    *telemetry.Counter
	evicts    *telemetry.Counter
	coalesced *telemetry.Counter
	bypass    *telemetry.Counter
	compile   *telemetry.Histogram
	entries   *telemetry.Gauge

	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used; values are *cacheEntry
	index    map[string]*list.Element
	inflight map[string]*flight
}

// cacheEntry is one memoized plan.
type cacheEntry struct {
	key  string
	plan *CampaignPlan
}

// flight is one in-progress compilation; waiters block on done and then
// read plan (or re-panic with panicked).
type flight struct {
	done     chan struct{}
	plan     *CampaignPlan
	panicked any
}

// Shared is the process-wide plan cache. beam.RunContext compiles through
// it, so every consumer of the beam package — cmd binaries, core.Assess,
// the neutrond worker pool — shares one set of compiled plans and its
// telemetry lands in the Default registry.
var Shared = NewCache(DefaultCapacity, telemetry.Default)

// NewCache builds a plan cache bounded to capacity entries (non-positive
// falls back to DefaultCapacity), posting its counters into reg.
func NewCache(capacity int, reg *telemetry.Registry) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if reg == nil {
		reg = telemetry.Default
	}
	return &Cache{
		reg:       reg,
		hits:      reg.Counter("plan.cache_hit"),
		misses:    reg.Counter("plan.cache_miss"),
		evicts:    reg.Counter("plan.cache_evict"),
		coalesced: reg.Counter("plan.cache_coalesced"),
		bypass:    reg.Counter("plan.cache_bypass"),
		compile:   reg.Histogram("plan.compile_seconds"),
		entries:   reg.Gauge("plan.cache_entries"),
		capacity:  capacity,
		ll:        list.New(),
		index:     map[string]*list.Element{},
		inflight:  map[string]*flight{},
	}
}

// For returns the compiled plan for a campaign, reusing a cached one when
// the key matches. The first request for a key compiles (counted as a
// miss); concurrent requests for the same key wait for that compilation
// instead of repeating it (counted as coalesced); later requests are hits.
// Spectra without a Fingerprint cannot be keyed and are compiled directly
// on every call (counted as bypass). The returned plan is immutable and
// shared — callers must treat it as read-only, which the CampaignPlan API
// enforces by construction.
func (c *Cache) For(d *device.Device, sp spectrum.Spectrum, calSamples int, seed uint64) *CampaignPlan {
	return c.ForBiasedContext(context.Background(), d, sp, calSamples, seed, nil)
}

// ForBiasedContext is For with an optional importance-sampling bias and a
// caller context. A nil bias is the exact path; a non-nil bias —
// including the identity Bias{} — compiles through CompileBiased under a
// bias-extended key (KeyForBiased), so biased and exact plans never
// collide and two different bias knobs never share an entry. The bias
// must be valid (Bias.Validate); callers validate at the API boundary, so
// an invalid bias reaching the cache panics like any other impossible
// compile input.
//
// The lookup opens a "plan.lookup" telemetry span (annotated with the
// outcome — hit, miss, coalesced or bypass) and a cache miss nests the
// "plan.compile" span under it, so traced jobs see exactly where campaign
// setup time went.
func (c *Cache) ForBiasedContext(ctx context.Context, d *device.Device, sp spectrum.Spectrum, calSamples int, seed uint64, bias *Bias) *CampaignPlan {
	var key string
	var ok bool
	if bias == nil {
		key, ok = KeyFor(d, sp, calSamples, seed)
	} else {
		key, ok = KeyForBiased(d, sp, calSamples, seed, *bias)
	}
	return c.lookup(ctx, key, ok, func(ctx context.Context, key string) *CampaignPlan {
		return c.timedCompile(ctx, d, sp, calSamples, seed, bias, key)
	})
}

// lookup runs the hit/coalesce/miss/bypass protocol for one key, calling
// compile on a miss (and on bypass, with an empty key).
func (c *Cache) lookup(ctx context.Context, key string, ok bool, compile func(context.Context, string) *CampaignPlan) *CampaignPlan {
	ctx, span := c.reg.StartSpan(ctx, "plan.lookup")
	span.SetStage("compile")
	defer span.End()
	if !ok {
		c.bypass.Add(1)
		span.Annotate("outcome", "bypass")
		return compile(ctx, "")
	}
	c.mu.Lock()
	if el, hit := c.index[key]; hit {
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		c.hits.Add(1)
		span.Annotate("outcome", "hit")
		return el.Value.(*cacheEntry).plan
	}
	if fl, flying := c.inflight[key]; flying {
		c.mu.Unlock()
		c.coalesced.Add(1)
		span.Annotate("outcome", "coalesced")
		<-fl.done
		if fl.panicked != nil {
			panic(fl.panicked)
		}
		return fl.plan
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[key] = fl
	c.mu.Unlock()
	c.misses.Add(1)
	span.Annotate("outcome", "miss")
	return c.compileFlight(ctx, fl, key, compile)
}

// compileFlight compiles for the flight's waiters and settles the cache
// entry. The deferred settlement runs even if Compile panics, so waiters
// never block forever and the panic propagates to every caller.
func (c *Cache) compileFlight(ctx context.Context, fl *flight, key string, compile func(context.Context, string) *CampaignPlan) *CampaignPlan {
	defer func() {
		if r := recover(); r != nil {
			fl.panicked = r
			c.mu.Lock()
			delete(c.inflight, key)
			c.mu.Unlock()
			close(fl.done)
			panic(r)
		}
	}()
	pl := compile(ctx, key)
	fl.plan = pl
	c.mu.Lock()
	delete(c.inflight, key)
	c.index[key] = c.ll.PushFront(&cacheEntry{key: key, plan: pl})
	c.evictLocked()
	c.entries.Set(float64(c.ll.Len()))
	c.mu.Unlock()
	close(fl.done)
	return pl
}

// timedCompile compiles the plan — Compile, or CompileBiased for a
// non-nil bias — from the canonical calibration substream for the seed,
// recording the duration into plan.compile_seconds and a "plan.compile"
// span. The bias was validated at the API boundary (beam.Config.validate,
// the neutrond request normalizer), so a compile error here is a
// programming error and panics — same contract as the alias-table build in
// Compile.
func (c *Cache) timedCompile(ctx context.Context, d *device.Device, sp spectrum.Spectrum, calSamples int, seed uint64, bias *Bias, key string) *CampaignPlan {
	_, span := c.reg.StartSpan(ctx, "plan.compile")
	t := telemetry.StartTimer(c.compile)
	var pl *CampaignPlan
	if bias == nil {
		pl = Compile(d, sp, calSamples, CalibrationStream(seed))
	} else {
		var err error
		if pl, err = CompileBiased(d, sp, calSamples, CalibrationStream(seed), *bias); err != nil {
			panic(fmt.Sprintf("plan: compile biased plan: %v", err))
		}
	}
	pl.key = key
	t.ObserveDuration()
	span.End()
	return pl
}

// evictLocked drops least-recently-used entries beyond capacity.
func (c *Cache) evictLocked() {
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		if oldest == nil {
			return
		}
		c.ll.Remove(oldest)
		delete(c.index, oldest.Value.(*cacheEntry).key)
		c.evicts.Add(1)
	}
}

// SetCapacity rebounds the cache, evicting LRU entries if it shrank.
// Non-positive capacities fall back to DefaultCapacity.
func (c *Cache) SetCapacity(n int) {
	if n <= 0 {
		n = DefaultCapacity
	}
	c.mu.Lock()
	c.capacity = n
	c.evictLocked()
	c.entries.Set(float64(c.ll.Len()))
	c.mu.Unlock()
}

// Stats is a point-in-time snapshot of the cache counters, served by
// neutrond's GET /v1/stats.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Coalesced int64 `json:"coalesced"`
	Bypass    int64 `json:"bypass"`
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
}

// HitRatio returns hits / (hits + misses), or 0 before any keyed lookup.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats reads the current counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	entries, capacity := c.ll.Len(), c.capacity
	c.mu.Unlock()
	return Stats{
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Evictions: c.evicts.Value(),
		Coalesced: c.coalesced.Value(),
		Bypass:    c.bypass.Value(),
		Entries:   entries,
		Capacity:  capacity,
	}
}
