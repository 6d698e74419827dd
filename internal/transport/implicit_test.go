package transport

import (
	"context"
	"math"
	"reflect"
	"testing"

	"neutronsim/internal/materials"
	"neutronsim/internal/physics"
	"neutronsim/internal/rng"
	"neutronsim/internal/units"
)

// implicitSlabs is an absorbing geometry where implicit capture actually
// matters: a water moderator in air, the stack the paper's environment
// discussion is built on.
func implicitSlabs() []Slab {
	return []Slab{
		{Material: materials.Air(), Thickness: 30},
		{Material: materials.Water(), Thickness: 5.08},
		{Material: materials.Air(), Thickness: 30},
	}
}

func fastWattSource(s *rng.Stream) units.Energy {
	return units.Energy(s.WattEnergy(0.988, 2.249) * 1e6)
}

// TestImplicitCaptureEquivalence pins the estimator contract: the
// weighted transmission, reflection and absorption of an implicit-capture
// run must agree with an analog run of the same geometry within combined
// sampling error (binomial on the analog side, ΣW² on the weighted side).
func TestImplicitCaptureEquivalence(t *testing.T) {
	const n = 40000
	analog, err := SimulateContext(context.Background(), implicitSlabs(), n, fastWattSource, rng.New(23), Options{})
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := SimulateContext(context.Background(), implicitSlabs(), n, fastWattSource, rng.New(29), Options{ImplicitCapture: true})
	if err != nil {
		t.Fatal(err)
	}
	w := weighted.Weighted
	if w == nil {
		t.Fatal("implicit-capture run carries no Weighted section")
	}
	check := func(name string, analogCount int, weightedSum, weightedSum2 float64) {
		t.Helper()
		sigma := math.Sqrt(float64(analogCount) + weightedSum2 + 1)
		if diff := math.Abs(weightedSum - float64(analogCount)); diff > 5*sigma {
			t.Errorf("%s: weighted %.1f vs analog %d differs by %.1f sigma", name, weightedSum, analogCount, diff/sigma)
		}
	}
	tSum2, rSum2 := 0.0, 0.0
	for _, wt := range w.Transmitted {
		tSum2 += wt.SumSquares()
	}
	for _, wt := range w.Reflected {
		rSum2 += wt.SumSquares()
	}
	check("transmission", analog.TransmittedTotal(), w.TransmittedWeight(), tSum2)
	check("reflection", analog.ReflectedTotal(), w.ReflectedWeight(), rSum2)
	check("absorption", analog.Absorbed, w.Absorbed.Sum(), w.Absorbed.SumSquares())
	// Thermal albedo specifically — the paper's flux-enhancement channel.
	check("thermal albedo", analog.Reflected[physics.BandThermal],
		w.Reflected[physics.BandThermal].SumW, w.Reflected[physics.BandThermal].SumSquares())
	// Element attribution must cover the same elements the analog capture
	// draw finds (hydrogen dominates water capture).
	if w.AbsorbedByElement["H"].SumW <= 0 {
		t.Errorf("implicit capture attributes no absorption to hydrogen: %+v", w.AbsorbedByElement)
	}
}

// TestImplicitCaptureConservation pins weight conservation: every unit of
// incident weight ends somewhere — transmitted, reflected, absorbed, or
// discarded by the roulette/collision bound, whose loss is a zero-mean
// martingale increment. The books must balance to well within a percent.
func TestImplicitCaptureConservation(t *testing.T) {
	const n = 30000
	tally, err := SimulateContext(context.Background(), implicitSlabs(), n, fastWattSource, rng.New(31), Options{ImplicitCapture: true})
	if err != nil {
		t.Fatal(err)
	}
	w := tally.Weighted
	total := w.TransmittedWeight() + w.ReflectedWeight() + w.Absorbed.Sum()
	if rel := math.Abs(total-float64(n)) / float64(n); rel > 0.01 {
		t.Errorf("weight books do not balance: %.2f of %d incident (rel err %v)", total, n, rel)
	}
	// The exit-channel history counts must agree between the analog maps
	// (which count histories in weighted mode) and the weighted tallies.
	for b, cnt := range tally.Transmitted {
		if int64(cnt) != w.Transmitted[b].N {
			t.Errorf("band %v: %d transmitted histories vs weighted N %d", b, cnt, w.Transmitted[b].N)
		}
	}
	if tally.Absorbed != int(w.RouletteKills)+tally.Lost {
		t.Errorf("weighted-mode Absorbed %d must count roulette kills %d + lost %d",
			tally.Absorbed, w.RouletteKills, tally.Lost)
	}
}

// TestImplicitCaptureShardCountInvariance extends the engine determinism
// contract to the weighted walk: the weighted merge runs in shard order,
// so any worker count must reproduce the serial tally bit-for-bit.
func TestImplicitCaptureShardCountInvariance(t *testing.T) {
	const n = 20000
	run := func(workers int) *Tally {
		tally, err := SimulateContext(context.Background(), implicitSlabs(), n, fastWattSource, rng.New(17),
			Options{ImplicitCapture: true, Shards: workers, ShardGrain: 2048})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return tally
	}
	ref := run(1)
	if ref.Weighted == nil || ref.Weighted.TransmittedWeight() == 0 || ref.Weighted.Absorbed.Sum() == 0 {
		t.Fatal("implicit-capture conformance tally is degenerate")
	}
	for _, workers := range []int{2, 7, 16} {
		if got := run(workers); !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d diverged from serial:\n got %+v\nwant %+v", workers, got, ref)
		}
	}
}

// TestImplicitCaptureVarianceReduction pins the point of the mode: in an
// absorbing geometry the weighted transmission estimate must have a
// higher effective sample size per incident neutron than... analog
// transmission is a Bernoulli count, so the comparison that matters is
// the absorption channel: continuous deposition spreads each history's
// capture over many collisions, so the weighted absorbed tally must
// carry far more entries than the analog one-death-per-history count —
// and its per-element attribution must be nonzero for every element the
// analog sampler ever picks.
func TestImplicitCaptureVarianceReduction(t *testing.T) {
	const n = 20000
	analog, err := SimulateContext(context.Background(), implicitSlabs(), n, fastWattSource, rng.New(41), Options{})
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := SimulateContext(context.Background(), implicitSlabs(), n, fastWattSource, rng.New(43), Options{ImplicitCapture: true})
	if err != nil {
		t.Fatal(err)
	}
	w := weighted.Weighted
	if w.Absorbed.N <= int64(analog.Absorbed) {
		t.Errorf("continuous absorption recorded %d deposits, analog recorded %d deaths; expected many more deposits",
			w.Absorbed.N, analog.Absorbed)
	}
	for elem, cnt := range analog.AbsorbedByElement {
		if cnt > 0 && w.AbsorbedByElement[elem].SumW <= 0 {
			t.Errorf("element %s captures in analog mode (%d) but carries no weighted absorption", elem, cnt)
		}
	}
}
