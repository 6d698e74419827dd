package plan

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"neutronsim/internal/device"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/telemetry"
	"neutronsim/internal/telemetry/trace"
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
// the physics changes, which is a new binary, not a new request. A compile
// that panics re-panics in every caller that asks for its entry, and the
// entry may stay cached; that is harmless, because a compile is
// deterministic and would panic again.
type Cache struct {
	hits      *telemetry.Counter
	misses    *telemetry.Counter
	evicts    *telemetry.Counter
	coalesced *telemetry.Counter
	compile   *telemetry.Histogram
	entries   *telemetry.Gauge

	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used; values are *cacheEntry
	index    map[string]*list.Element
}

// cacheEntry is one memoized plan. It enters the cache on the miss that
// compiles it: plan is a sync.OnceValue over the compile, so concurrent
// lookups of the key wait for that one compile, and compiled is set when
// it returns.
type cacheEntry struct {
	key      string
	plan     func() *CampaignPlan
	compiled atomic.Bool
}

// Shared is the process-wide plan cache. beam.RunContext compiles through
// it, so every consumer of the beam package — cmd binaries,
// core.AssessContext, the neutrond worker pool — shares one set of
// compiled plans and its telemetry lands in the Default registry.
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
		hits:      reg.Counter("plan.cache_hit"),
		misses:    reg.Counter("plan.cache_miss"),
		evicts:    reg.Counter("plan.cache_evict"),
		coalesced: reg.Counter("plan.cache_coalesced"),
		compile:   reg.Histogram("plan.compile_seconds"),
		entries:   reg.Gauge("plan.cache_entries"),
		capacity:  capacity,
		ll:        list.New(),
		index:     map[string]*list.Element{},
	}
}

// For returns the compiled plan for a campaign, reusing a cached one when
// the key matches. The first request for a key compiles (counted as a
// miss); concurrent requests for the same key wait for that compilation
// instead of repeating it (counted as coalesced); later requests are hits.
// A plan calibrates on the spectrum's stratified point set, so no seed
// reaches it: every campaign with the same physics gets the same plan, and
// the unnamed seed parameter is ignored. The returned plan is immutable
// and shared — callers must treat it as read-only, which the CampaignPlan
// API enforces by construction.
func (c *Cache) For(d *device.Device, sp spectrum.Spectrum, calSamples int, _ uint64) *CampaignPlan {
	return c.ForBiasedContext(context.Background(), d, sp, calSamples, nil)
}

// ForBiasedContext is For with an optional importance-sampling bias and a
// caller context. A nil bias is the exact path; a non-nil bias —
// including the identity Bias{} — compiles a biased plan under a
// bias-extended key (KeyForBiased), so biased and exact plans never
// collide and two different bias knobs never share an entry. The bias
// must be valid (Bias.Validate); callers validate at the API boundary, so
// an invalid bias reaching the cache panics like any other impossible
// compile input.
//
// The lookup opens a "plan.lookup" trace span (annotated with the
// outcome — hit, miss or coalesced) and a cache miss nests the
// "plan.compile" span under it, so traced jobs see exactly where campaign
// setup time went.
func (c *Cache) ForBiasedContext(ctx context.Context, d *device.Device, sp spectrum.Spectrum, calSamples int, bias *Bias) *CampaignPlan {
	var key string
	if bias == nil {
		key = KeyFor(d, sp, calSamples)
	} else {
		key = KeyForBiased(d, sp, calSamples, *bias)
	}
	return c.lookup(ctx, key, func(ctx context.Context) *CampaignPlan {
		return c.timedCompile(ctx, d, sp, calSamples, bias, key)
	})
}

// lookup runs the hit/coalesce/miss protocol for one key. A miss enters
// the key's entry under the lock and calls compile outside it; a lookup
// that finds the entry before its compile returns is coalesced onto it.
func (c *Cache) lookup(ctx context.Context, key string, compile func(context.Context) *CampaignPlan) *CampaignPlan {
	ctx, span := trace.StartChild(ctx, "plan.lookup")
	span.SetStage("compile")
	defer span.End()
	c.mu.Lock()
	if el, ok := c.index[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.mu.Unlock()
		if e.compiled.Load() {
			c.hits.Add(1)
			span.SetAttr("outcome", "hit")
		} else {
			c.coalesced.Add(1)
			span.SetAttr("outcome", "coalesced")
		}
		return e.plan()
	}
	e := &cacheEntry{key: key}
	e.plan = sync.OnceValue(func() *CampaignPlan {
		pl := compile(ctx)
		e.compiled.Store(true)
		return pl
	})
	c.index[key] = c.ll.PushFront(e)
	c.evictLocked()
	c.entries.Set(float64(c.ll.Len()))
	c.mu.Unlock()
	c.misses.Add(1)
	span.SetAttr("outcome", "miss")
	return e.plan()
}

// timedCompile compiles the plan, exact or biased, on the spectrum's
// stratified point set, recording the duration into plan.compile_seconds
// and a "plan.compile" span. The bias was validated at the API boundary
// (beam.Config.validate, the neutrond request normalizer), so an invalid
// one here is a programming error and panics — same contract as the
// weight check in compile.
func (c *Cache) timedCompile(ctx context.Context, d *device.Device, sp spectrum.Spectrum, calSamples int, bias *Bias, key string) *CampaignPlan {
	_, span := trace.StartChild(ctx, "plan.compile")
	start := time.Now()
	pl, err := compile(d, sp, calSamples, nil, sp.Points(calSamples), bias)
	if err != nil {
		panic(fmt.Sprintf("plan: compile biased plan: %v", err))
	}
	pl.key = key
	c.compile.ObserveSince(start)
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
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
}

// HitRatio returns hits / (hits + misses), or 0 before any lookup.
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
		Entries:   entries,
		Capacity:  capacity,
	}
}
