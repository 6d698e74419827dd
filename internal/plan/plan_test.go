package plan

import (
	"sync"
	"testing"

	"neutronsim/internal/device"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/telemetry"
)

// TestKeySensitivity proves the cache key covers every input Compile reads:
// changing any one of them moves the key, and identical inputs reproduce
// it. A collision between two different compilations would silently serve
// the wrong physics, so this is the cache's core safety property.
func TestKeySensitivity(t *testing.T) {
	base := device.K20()
	key := func(d *device.Device, sp spectrum.Spectrum, n int, seed uint64) string {
		k, ok := KeyFor(d, sp, n, seed)
		if !ok {
			t.Fatalf("KeyFor(%s, %s) not keyable", d.Name, sp.Name())
		}
		return k
	}
	ref := key(base, spectrum.ChipIR(), 20000, 1)
	if again := key(device.K20(), spectrum.ChipIR(), 20000, 1); again != ref {
		t.Errorf("identical inputs produced different keys:\n%s\n%s", ref, again)
	}

	perturbed := map[string]string{
		"spectrum":   key(base, spectrum.ROTAX(), 20000, 1),
		"calSamples": key(base, spectrum.ChipIR(), 20001, 1),
		"seed":       key(base, spectrum.ChipIR(), 20000, 2),
	}
	boron := device.K20()
	boron.Boron10PerCm2 *= 2
	perturbed["boron"] = key(boron, spectrum.ChipIR(), 20000, 1)
	depth := device.K20()
	depth.SensitiveDepthUm *= 2
	perturbed["depth"] = key(depth, spectrum.ChipIR(), 20000, 1)
	frac := device.K20()
	frac.SensitiveFraction /= 2
	perturbed["fraction"] = key(frac, spectrum.ChipIR(), 20000, 1)

	seen := map[string]string{ref: "reference"}
	for name, k := range perturbed {
		if prev, dup := seen[k]; dup {
			t.Errorf("perturbing %s collided with %s", name, prev)
		}
		seen[k] = name
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
	ka, _ := KeyFor(a, spectrum.ChipIR(), 20000, 1)
	kb, _ := KeyFor(b, spectrum.ChipIR(), 20000, 1)
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
	p1again := c.For(d, spectrum.ChipIR(), n, 1)
	if p1again != p1 {
		t.Error("hit returned a different plan instance")
	}
	if got := c.Stats(); got.Hits != 1 {
		t.Fatalf("after hit: %+v", got)
	}

	c.For(d, spectrum.ROTAX(), n, 1) // fills capacity
	c.For(d, spectrum.ChipIR(), n, 2)
	// Capacity 2 with three distinct keys: the LRU victim is ChipIR/seed 1
	// (ROTAX/seed 1 and ChipIR/seed 2 were touched after its last hit).
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

// TestCacheBypass pins the unkeyable-spectrum path: a spectrum without a
// Fingerprint compiles on every call, never lands in the cache, and is
// counted as a bypass.
func TestCacheBypass(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewCache(4, reg)
	d := device.K20()
	sp := &prefixSpectrum{prefix: 0}
	a := c.For(d, sp, 64, 1)
	b := c.For(d, sp, 64, 1)
	if a == b {
		t.Error("bypass returned a shared instance; unkeyable spectra must compile per call")
	}
	if a.key != "" {
		t.Errorf("bypass plan has key %q, want none", a.key)
	}
	st := c.Stats()
	if st.Bypass != 2 || st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("after two bypasses: %+v", st)
	}
}

// TestSetCapacityEvicts shrinks a populated cache and checks the overflow
// is evicted in LRU order.
func TestSetCapacityEvicts(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewCache(8, reg)
	d := device.K20()
	for seed := uint64(1); seed <= 4; seed++ {
		c.For(d, spectrum.ChipIR(), 64, seed)
	}
	if c.Stats().Entries != 4 {
		t.Fatalf("cache holds %d plans, want 4", c.Stats().Entries)
	}
	c.SetCapacity(2)
	st := c.Stats()
	if st.Entries != 2 || st.Capacity != 2 || st.Evictions != 2 {
		t.Fatalf("after shrink: %+v", st)
	}
	// The most recent seeds survive.
	before := st.Misses
	c.For(d, spectrum.ChipIR(), 64, 3)
	c.For(d, spectrum.ChipIR(), 64, 4)
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

// TestSharedCompileMatchesDirect is the memoization identity at the plan
// level: the shared-path plan must checksum-match a direct Compile fed the
// canonical calibration stream.
func TestSharedCompileMatchesDirect(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewCache(4, reg)
	d := device.TitanV()
	const n, seed = 2000, 42
	cached := c.For(d, spectrum.ROTAX(), n, seed)
	direct := Compile(d, spectrum.ROTAX(), n, CalibrationStream(seed))
	if cached.Checksum() != direct.Checksum() {
		t.Fatal("cached plan differs from a direct Compile with the canonical calibration stream")
	}
	if cached.MeanP() != direct.MeanP() {
		t.Fatalf("meanP mismatch: %v vs %v", cached.MeanP(), direct.MeanP())
	}
}
