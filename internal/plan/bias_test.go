package plan

import (
	"context"
	"math"
	"testing"

	"neutronsim/internal/device"
	"neutronsim/internal/physics"
	"neutronsim/internal/rng"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/telemetry"
)

// TestBiasedKeySensitivity extends the key-safety property to biased
// plans: a biased key never collides with the exact key for the same
// campaign, different factors never share a key, and the two spellings of
// the identity factor — 0 (unset) and 1.0 — hash identically because they
// compile the same sampler.
func TestBiasedKeySensitivity(t *testing.T) {
	d := device.K20()
	key := func(bias Bias) string {
		k, ok := KeyForBiased(d, spectrum.ChipIR(), 20000, 1, bias)
		if !ok {
			t.Fatal("KeyForBiased not keyable on a fingerprinted spectrum")
		}
		return k
	}
	exact, _ := KeyFor(d, spectrum.ChipIR(), 20000, 1)
	identity := key(Bias{})
	if identity == exact {
		t.Error("identity-bias key collides with the exact key; biased and exact plans would share a cache entry")
	}
	if spelled := key(Bias{Thermal: 1, Epithermal: 1, Fast: 1}); spelled != identity {
		t.Error("bias factor spelled 1.0 keys differently from unset; both compile the same sampler")
	}
	seen := map[string]string{exact: "exact", identity: "identity"}
	for name, b := range map[string]Bias{
		"thermal":    {Thermal: 8},
		"epithermal": {Epithermal: 8},
		"fast":       {Fast: 8},
		"thermal16":  {Thermal: 16},
		"combined":   {Thermal: 8, Epithermal: 2},
	} {
		k := key(b)
		if prev, dup := seen[k]; dup {
			t.Errorf("bias %s collided with %s", name, prev)
		}
		seen[k] = name
	}

	// Run-only device fields must stay irrelevant for biased keys too.
	renamed := device.K20()
	renamed.Name = "renamed"
	renamed.DieAreaCm2 *= 3
	renamed.QcritFC *= 2
	ka, _ := KeyForBiased(d, spectrum.ChipIR(), 20000, 1, Bias{Thermal: 8})
	kb, _ := KeyForBiased(renamed, spectrum.ChipIR(), 20000, 1, Bias{Thermal: 8})
	if ka != kb {
		t.Error("run-only device fields changed the biased plan key")
	}
}

// TestCompileBiasedIdentity pins the zero-bias identity at the plan
// level: identity factors must reproduce the exact table bit-for-bit
// (same checksum inputs, same draws, same stream consumption) with every
// band weight exactly 1, so the weighted run loop's arithmetic degrades
// to the exact run loop's.
func TestCompileBiasedIdentity(t *testing.T) {
	d := device.K20()
	const n, seed = 4000, 3
	exact := Compile(d, spectrum.ChipIR(), n, CalibrationStream(seed))
	unit, err := CompileBiased(d, spectrum.ChipIR(), n, CalibrationStream(seed), Bias{})
	if err != nil {
		t.Fatal(err)
	}
	if !unit.IsBiased() {
		t.Fatal("identity-bias plan must still carry the biased table (it routes the weighted code path)")
	}
	if unit.MeanP() != exact.MeanP() {
		t.Errorf("meanP %v != exact %v", unit.MeanP(), exact.MeanP())
	}
	for b := physics.EnergyBand(0); b <= physics.BandFast; b++ {
		if w := unit.bandW[b]; w != 1 {
			t.Errorf("band %d weight %v, want exactly 1", b, w)
		}
	}
	// Draw-for-draw: the biased table of an identity plan is bit-identical
	// to the exact table, so the weighted draw must return the same energy
	// from the same stream state, with weight exactly 1.
	se, sw := rng.New(77), rng.New(77)
	for i := 0; i < 5000; i++ {
		we, w := unit.SampleInteractionWeighted(sw)
		if e := exact.SampleInteraction(se); we != e || w != 1 {
			t.Fatalf("draw %d: weighted (%v, %v) != exact (%v, 1)", i, we, w, e)
		}
	}
}

// TestBiasedPlanHasNoUnweightedView pins that a biased plan, whose one
// table is the biased one, refuses unweighted draws instead of returning
// energies without their likelihood weights.
func TestBiasedPlanHasNoUnweightedView(t *testing.T) {
	p, err := CompileBiased(device.K20(), spectrum.ChipIR(), 64, CalibrationStream(1), Bias{Thermal: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Sampler on a biased plan did not panic")
		}
	}()
	p.Sampler()
}

// TestCompileBiasedWeights pins the likelihood-weight arithmetic: for a
// genuinely biased plan, w(band) = (S'/S)/factor(band), every draw's
// weight matches its band, and the weighted draws remain an unbiased
// estimator (mean weight ≈ 1 under the biased distribution).
func TestCompileBiasedWeights(t *testing.T) {
	d := device.FPGA()
	const n, seed = 20000, 5
	bias := Bias{Thermal: 25}
	p, err := CompileBiased(d, spectrum.ChipIR(), n, CalibrationStream(seed), bias)
	if err != nil {
		t.Fatal(err)
	}
	wThermal, wFast := p.bandW[physics.BandThermal], p.bandW[physics.BandFast]
	if !(wThermal < wFast) {
		t.Fatalf("oversampled thermal weight %v must be below fast weight %v", wThermal, wFast)
	}
	if math.Abs(wThermal*25-wFast) > 1e-12*wFast {
		t.Errorf("weights break w = ratio/factor: thermal %v × 25 != fast %v", wThermal, wFast)
	}
	s := rng.New(21)
	var meanW float64
	const draws = 200000
	thermal := 0
	for i := 0; i < draws; i++ {
		e, w := p.SampleInteractionWeighted(s)
		if want := p.bandW[physics.Classify(e)]; w != want {
			t.Fatalf("draw %d: weight %v != band weight %v", i, w, want)
		}
		if physics.Classify(e) == physics.BandThermal {
			thermal++
		}
		meanW += w
	}
	meanW /= draws
	if math.Abs(meanW-1) > 0.01 {
		t.Errorf("mean draw weight %v, want ≈ 1 (unbiasedness)", meanW)
	}
	if thermal == 0 {
		t.Error("thermal oversampling drew no thermal energies")
	}
}

// TestCompileBiasedDegenerate pins the degenerate fallback: a campaign
// where nothing interacts compiles to the uniform table with unit weights
// on both the exact and the biased side.
func TestCompileBiasedDegenerate(t *testing.T) {
	d := device.K20()
	d.Boron10PerCm2 = 0 // thermal beam + no boron: p(E) = 0 everywhere
	p, err := CompileBiased(d, spectrum.ROTAX(), 64, CalibrationStream(7), Bias{Thermal: 100})
	if err != nil {
		t.Fatal(err)
	}
	if p.MeanP() != 0 {
		t.Fatalf("meanP = %v, want 0", p.MeanP())
	}
	for b := physics.EnergyBand(0); b <= physics.BandFast; b++ {
		if w := p.bandW[b]; w != 1 {
			t.Errorf("degenerate plan band %d weight %v, want 1", b, w)
		}
	}
	s := rng.New(9)
	for i := 0; i < 1000; i++ {
		if _, w := p.SampleInteractionWeighted(s); w != 1 {
			t.Fatalf("degenerate draw carries weight %v, want 1", w)
		}
	}
}

// TestBiasValidate enumerates the rejection surface: negative, NaN and
// infinite factors are invalid; zero (unset) and any positive finite
// factor are valid.
func TestBiasValidate(t *testing.T) {
	for _, b := range []Bias{
		{Thermal: -1}, {Epithermal: -0.001}, {Fast: math.Inf(1)},
		{Thermal: math.Inf(-1)}, {Epithermal: math.NaN()},
	} {
		if b.Validate() == nil {
			t.Errorf("Validate accepted invalid bias %+v", b)
		}
	}
	for _, b := range []Bias{{}, {Thermal: 1e-9}, {Thermal: 100, Epithermal: 0.5, Fast: 2}} {
		if err := b.Validate(); err != nil {
			t.Errorf("Validate rejected valid bias %+v: %v", b, err)
		}
	}
}

// FuzzBiasedAlias drives CompileBiased with fuzzed factors. Invalid
// factors (negative, NaN, ±Inf) must be rejected with an error — never a
// panic — and valid factors must produce a plan whose draws all carry the
// positive finite weight of their band.
func FuzzBiasedAlias(f *testing.F) {
	f.Add(uint64(1), 100.0, 1.0, 1.0)
	f.Add(uint64(2), 0.0, 0.0, 0.0)
	f.Add(uint64(3), -1.0, math.NaN(), math.Inf(1))
	f.Add(uint64(4), 1e-300, 1e300, 0.5)
	f.Fuzz(func(t *testing.T, seed uint64, thermal, epithermal, fast float64) {
		bias := Bias{Thermal: thermal, Epithermal: epithermal, Fast: fast}
		p, err := CompileBiased(device.K20(), spectrum.ChipIR(), 200, CalibrationStream(seed), bias)
		if bias.Validate() != nil {
			if err == nil {
				t.Fatalf("invalid bias %+v compiled without error", bias)
			}
			return
		}
		if err != nil {
			t.Fatalf("valid bias %+v rejected: %v", bias, err)
		}
		s := rng.New(seed)
		for i := 0; i < 256; i++ {
			_, w := p.SampleInteractionWeighted(s)
			if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
				t.Fatalf("bias %+v draw %d carries non-finite or non-positive weight %v", bias, i, w)
			}
		}
	})
}

// TestCacheForBiased pins the cache behavior of biased plans: nil bias is
// the exact path (same entry as For), a non-nil bias compiles its own
// entry, distinct factors get distinct entries, and repeated lookups hit.
func TestCacheForBiased(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewCache(8, reg)
	d := device.K20()
	const n = 256
	ctx := context.Background()

	exact := c.For(d, spectrum.ChipIR(), n, 1)
	if viaNil := c.ForBiasedContext(ctx, d, spectrum.ChipIR(), n, 1, nil); viaNil != exact {
		t.Error("nil bias must share the exact plan's cache entry")
	}
	identity := c.ForBiasedContext(ctx, d, spectrum.ChipIR(), n, 1, &Bias{})
	if identity == exact {
		t.Error("identity bias shared the exact entry; it must compile its own biased plan")
	}
	if !identity.IsBiased() {
		t.Error("cached identity plan lost its biased table")
	}
	thermal := c.ForBiasedContext(ctx, d, spectrum.ChipIR(), n, 1, &Bias{Thermal: 8})
	if thermal == identity || thermal == exact {
		t.Error("distinct bias factors shared a cache entry")
	}
	if again := c.ForBiasedContext(ctx, d, spectrum.ChipIR(), n, 1, &Bias{Thermal: 8}); again != thermal {
		t.Error("repeated biased lookup recompiled instead of hitting")
	}
	st := c.Stats()
	if st.Misses != 3 || st.Hits != 2 {
		t.Errorf("cache counters %+v, want 3 misses (exact, identity, thermal) and 2 hits", st)
	}
}

// TestBiasedChecksumDistinct pins the checksum side of the identity: a
// biased plan's checksum covers the biased table and weights, so exact
// and biased plans — and differently biased plans — are distinguishable
// artifacts, while two compilations of the same biased campaign agree.
func TestBiasedChecksumDistinct(t *testing.T) {
	d := device.K20()
	const n, seed = 512, 2
	exact := Compile(d, spectrum.ChipIR(), n, CalibrationStream(seed))
	a, err := CompileBiased(d, spectrum.ChipIR(), n, CalibrationStream(seed), Bias{Thermal: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompileBiased(d, spectrum.ChipIR(), n, CalibrationStream(seed), Bias{Thermal: 16})
	if err != nil {
		t.Fatal(err)
	}
	again, err := CompileBiased(d, spectrum.ChipIR(), n, CalibrationStream(seed), Bias{Thermal: 8})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Checksum() == a.Checksum() || a.Checksum() == b.Checksum() {
		t.Error("bias does not move the plan checksum")
	}
	if a.Checksum() != again.Checksum() {
		t.Error("recompiling the same biased campaign moved the checksum")
	}
}
