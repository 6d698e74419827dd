package plan

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"neutronsim/internal/device"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/telemetry"
)

// TestKeySensitivity proves the cache key covers every input a cached
// compile reads: changing any one of them moves the key, and identical
// inputs reproduce it. A collision between two different compilations
// would silently serve the wrong physics, so this is the cache's core
// safety property. The converse holds for the seed, which a cached compile
// does not read: campaigns on two seeds share one plan.
func TestKeySensitivity(t *testing.T) {
	base := device.K20()
	ref := KeyFor(base, spectrum.ChipIR(), 20000)
	if again := KeyFor(device.K20(), spectrum.ChipIR(), 20000); again != ref {
		t.Errorf("identical inputs produced different keys:\n%s\n%s", ref, again)
	}

	perturbed := map[string]string{
		"spectrum":   KeyFor(base, spectrum.ROTAX(), 20000),
		"calSamples": KeyFor(base, spectrum.ChipIR(), 20001),
	}
	boron := device.K20()
	boron.Boron10PerCm2 *= 2
	perturbed["boron"] = KeyFor(boron, spectrum.ChipIR(), 20000)
	depth := device.K20()
	depth.SensitiveDepthUm *= 2
	perturbed["depth"] = KeyFor(depth, spectrum.ChipIR(), 20000)
	frac := device.K20()
	frac.SensitiveFraction /= 2
	perturbed["fraction"] = KeyFor(frac, spectrum.ChipIR(), 20000)

	seen := map[string]string{ref: "reference"}
	for name, k := range perturbed {
		if prev, dup := seen[k]; dup {
			t.Errorf("perturbing %s collided with %s", name, prev)
		}
		seen[k] = name
	}

	c := NewCache(4, telemetry.NewRegistry())
	if c.For(base, spectrum.ChipIR(), 256, 1) != c.For(base, spectrum.ChipIR(), 256, 2) {
		t.Error("two seeds got two plans for one physics")
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Errorf("two seeds of one physics: %+v, want 1 miss, 1 hit, 1 entry", st)
	}
}

// TestKeyIgnoresRunOnlyFields pins the flip side: device fields that do not
// feed Compile (die area, Qcrit, name) must not fragment the cache.
func TestKeyIgnoresRunOnlyFields(t *testing.T) {
	a := device.K20()
	b := device.K20()
	b.Name = "renamed"
	b.DieAreaCm2 *= 3
	b.QcritFC *= 2
	b.QcritSigmaFC *= 2
	ka := KeyFor(a, spectrum.ChipIR(), 20000)
	kb := KeyFor(b, spectrum.ChipIR(), 20000)
	if ka != kb {
		t.Errorf("run-only device fields changed the plan key:\n%s\n%s", ka, kb)
	}
}

// TestCacheHitMissEvict walks a small cache through its whole lifecycle
// and checks the counters and the LRU order at each step.
func TestCacheHitMissEvict(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewCache(2, reg)
	d := device.K20()
	const n = 256

	p1 := c.For(d, spectrum.ChipIR(), n, 1)
	if got := c.Stats(); got.Misses != 1 || got.Hits != 0 || got.Entries != 1 {
		t.Fatalf("after first compile: %+v", got)
	}
	if p1.key == "" {
		t.Error("cached plan lost its key")
	}
	if p1.Checksum() != CompileStratified(d, spectrum.ChipIR(), n, nil).Checksum() {
		t.Error("cached plan differs from a direct stratified compile")
	}
	p1again := c.For(d, spectrum.ChipIR(), n, 1)
	if p1again != p1 {
		t.Error("hit returned a different plan instance")
	}
	if got := c.Stats(); got.Hits != 1 {
		t.Fatalf("after hit: %+v", got)
	}

	c.For(d, spectrum.ROTAX(), n, 1) // fills capacity
	c.For(d, spectrum.ChipIR(), n+1, 1)
	// Capacity 2 with three distinct keys: the LRU victim is ChipIR at
	// budget n (ROTAX and ChipIR at budget n+1 were touched after its last
	// hit).
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("after overflow: %+v", st)
	}
	p1yetAgain := c.For(d, spectrum.ChipIR(), n, 1)
	if p1yetAgain == p1 {
		t.Error("evicted plan instance came back; expected a recompile")
	}
	if p1yetAgain.Checksum() != p1.Checksum() {
		t.Error("recompiled plan differs from the original for identical inputs")
	}
	if ratio := c.Stats().HitRatio(); ratio <= 0 || ratio >= 1 {
		t.Errorf("hit ratio = %v, want in (0,1)", ratio)
	}
}

// TestSetCapacityEvicts shrinks a populated cache and checks the overflow
// is evicted in LRU order.
func TestSetCapacityEvicts(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewCache(8, reg)
	d := device.K20()
	for n := 64; n < 68; n++ {
		c.For(d, spectrum.ChipIR(), n, 1)
	}
	if c.Stats().Entries != 4 {
		t.Fatalf("cache holds %d plans, want 4", c.Stats().Entries)
	}
	c.SetCapacity(2)
	st := c.Stats()
	if st.Entries != 2 || st.Capacity != 2 || st.Evictions != 2 {
		t.Fatalf("after shrink: %+v", st)
	}
	// The most recent budgets survive.
	before := st.Misses
	c.For(d, spectrum.ChipIR(), 66, 1)
	c.For(d, spectrum.ChipIR(), 67, 1)
	if got := c.Stats(); got.Misses != before {
		t.Errorf("recently used plans were evicted: %+v", got)
	}
}

// TestCoalescing proves concurrent requests for one key compile once: a
// slow spectrum makes the first compile long enough that the rest of the
// pack reliably arrives while it is in flight, and every caller must get
// the same plan instance.
func TestCoalescing(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewCache(4, reg)
	d := device.K20()
	const callers = 8
	var wg sync.WaitGroup
	plans := make([]*CampaignPlan, callers)
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			plans[i] = c.For(d, spectrum.ChipIR(), 50000, 1)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 1; i < callers; i++ {
		if plans[i] != plans[0] {
			t.Fatalf("caller %d got a different plan instance", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("%d compiles for one key, want 1 (%+v)", st.Misses, st)
	}
	if st.Hits+st.Coalesced != callers-1 {
		t.Errorf("hits %d + coalesced %d, want %d", st.Hits, st.Coalesced, callers-1)
	}
}

// TestCompilePanicReachesEveryCaller holds the cache to its panic
// contract: a compile that panics re-panics, with its value, in the caller
// that missed, in every caller coalesced onto it, and in a later caller.
func TestCompilePanicReachesEveryCaller(t *testing.T) {
	c := NewCache(4, telemetry.NewRegistry())
	release := make(chan struct{})
	compiles := 0
	compile := func(context.Context) *CampaignPlan {
		compiles++
		<-release
		panic("bad compile")
	}
	lookup := func() (v any) {
		defer func() { v = recover() }()
		c.lookup(context.Background(), "k", compile)
		return nil
	}
	const callers = 4
	got := make(chan any, callers)
	for i := 0; i < callers; i++ {
		go func() { got <- lookup() }()
	}
	for st := c.Stats(); st.Misses+st.Coalesced < callers; st = c.Stats() {
		runtime.Gosched()
	}
	close(release)
	for i := 0; i < callers; i++ {
		if v := <-got; v != "bad compile" {
			t.Errorf("caller %d recovered %v, want the compile's panic", i, v)
		}
	}
	if compiles != 1 {
		t.Errorf("%d compiles for %d concurrent callers, want 1", compiles, callers)
	}
	if v := lookup(); v != "bad compile" {
		t.Errorf("later caller recovered %v, want the compile's panic", v)
	}
}

// TestSharedCompileMatchesDirect is the memoization identity at the plan
// level: the shared-path plan must checksum-match a direct compile fed the
// spectrum's stratified point set, exact and biased, whatever the seed.
func TestSharedCompileMatchesDirect(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewCache(4, reg)
	d := device.TitanV()
	const n = 2000
	for _, bias := range []*Bias{nil, {Thermal: 10}} {
		cached := c.ForBiasedContext(context.Background(), d, spectrum.ROTAX(), n, bias)
		direct := CompileStratified(d, spectrum.ROTAX(), n, bias)
		if cached.Checksum() != direct.Checksum() {
			t.Fatalf("bias %v: cached plan differs from a direct stratified compile", bias)
		}
		if cached.MeanP() != direct.MeanP() {
			t.Fatalf("bias %v: meanP mismatch: %v vs %v", bias, cached.MeanP(), direct.MeanP())
		}
	}
}
