package beam

import (
	"context"
	"math"
	"reflect"
	"testing"

	"neutronsim/internal/device"
	"neutronsim/internal/physics"
	"neutronsim/internal/plan"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/stats"
)

// equivalenceConfig is the shared campaign shape of the weighted-vs-exact
// suite: boosted sensitivity (so every device collects real statistics in
// seconds) and a fixed run length (so exact and biased campaigns see the
// same fluence and run count by construction). Runs are kept short —
// about 0.5–3 interactions per run across the catalog — because a run's
// likelihood weight is the product of its draws' weights: importance
// sampling is a rare-event tool, and long runs with many draws degrade
// the product's effective sample size exponentially (see DESIGN.md §14).
func equivalenceConfig(d *device.Device, sp spectrum.Spectrum, seed uint64) Config {
	dut := *d
	dut.SensitiveFraction = 0.2
	return Config{
		Device:          &dut,
		WorkloadName:    "MxM",
		Beam:            sp,
		DurationSeconds: 1500,
		RunSeconds:      0.05,
		Seed:            seed,
		CalSamples:      2000,
		ShardGrain:      256,
	}
}

// equivalenceBias oversamples the spectrum's rare band: at ChipIR the
// thermal-capture channel holds ~1% of the interaction mass, at ROTAX the
// epithermal tail ~0.1%. Moderate factors keep every channel's ESS high
// enough that the suite has power on common tallies too.
func equivalenceBias(sp spectrum.Spectrum) *plan.Bias {
	if sp.Name() == "ROTAX" {
		return &plan.Bias{Epithermal: 6}
	}
	return &plan.Bias{Thermal: 12}
}

// TestZeroBiasIdentity pins the identity half of the equivalence
// contract: Bias{} routes the campaign through the weighted code path —
// biased table, weighted tallies, weighted cross sections — and must
// reproduce the exact campaign bit-for-bit, with every weight exactly 1.
func TestZeroBiasIdentity(t *testing.T) {
	for _, sp := range []spectrum.Spectrum{spectrum.ChipIR(), spectrum.ROTAX()} {
		cfg := equivalenceConfig(device.FPGA(), sp, 17)
		exact, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Bias = &plan.Bias{}
		unit, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if unit.Weighted == nil {
			t.Fatalf("%s: zero-bias campaign carries no Weighted section", sp.Name())
		}
		stripped := *unit
		stripped.Weighted = nil
		if !reflect.DeepEqual(&stripped, exact) {
			t.Errorf("%s: zero-bias result differs from exact result:\nexact: %+v\nunit:  %+v", sp.Name(), exact, &stripped)
		}
		w := unit.Weighted
		if w.Draws.SumW != float64(w.Draws.N) || w.Draws.SumW2 != float64(w.Draws.N) {
			t.Errorf("%s: zero-bias draw weights not exactly 1: sum=%v sum2=%v n=%d",
				sp.Name(), w.Draws.SumW, w.Draws.SumW2, w.Draws.N)
		}
		for tally, want := range map[*stats.Weighted]int64{
			&w.SDC: exact.SDC, &w.DUE: exact.DUE, &w.Masked: exact.Masked,
		} {
			if tally.SumW != float64(want) || tally.N != want {
				t.Errorf("%s: zero-bias weighted tally (n=%d sum=%v) != exact count %d",
					sp.Name(), tally.N, tally.SumW, want)
			}
		}
		for b, n := range exact.FaultsByBand {
			if got := w.UpsetsByBand[b]; got.SumW != float64(n) || got.N != n {
				t.Errorf("%s: zero-bias upsets band %s (n=%d sum=%v) != exact %d",
					sp.Name(), b, got.N, got.SumW, n)
			}
		}
	}
}

// TestWeightedEquivalenceAllDevices is the statistical half: for every
// catalog device on both spectra, a biased campaign must agree with the
// exact campaign within sampling error. Two assertions per channel, both
// with tolerances derived from the measured statistics rather than
// hardcoded margins: the 95% CIs must overlap, and the point estimates
// must sit within 5 combined standard deviations (exact variance from the
// Poisson count, weighted variance from the sum of squared weights — the
// ESS ingredient).
func TestWeightedEquivalenceAllDevices(t *testing.T) {
	devices := device.All()
	if testing.Short() {
		devices = devices[:2]
	}
	for _, sp := range []spectrum.Spectrum{spectrum.ChipIR(), spectrum.ROTAX()} {
		for i, d := range devices {
			d, sp := d, sp
			t.Run(sp.Name()+"/"+d.Name, func(t *testing.T) {
				t.Parallel()
				seed := uint64(900 + i)
				cfg := equivalenceConfig(d, sp, seed)
				exact, err := RunContext(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Bias = equivalenceBias(sp)
				biased, err := RunContext(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				w := biased.Weighted
				if w == nil {
					t.Fatal("biased campaign carries no Weighted section")
				}
				// Weights conservation: each draw weight has mean 1 under
				// the biased distribution, so the weighted draw sum must
				// estimate its own draw count within sampling error (ΣW²
				// bounds the variance of the sum).
				if diff := math.Abs(w.Draws.SumW - float64(w.Draws.N)); diff > 5*math.Sqrt(w.Draws.SumSquares()+1) {
					t.Errorf("draws: weight sum %.2f vs draw count %d differs beyond 5 sigma", w.Draws.SumW, w.Draws.N)
				}
				compareChannel(t, "SDC", exact.SDC, w.SDC)
				compareChannel(t, "DUE", exact.DUE, w.DUE)
				compareChannel(t, "Masked", exact.Masked, w.Masked)
				for b := physics.BandThermal; b <= physics.BandFast; b++ {
					compareChannel(t, "upsets/"+b.String(), exact.FaultsByBand[b], w.UpsetsByBand[b])
				}
				// CI overlap on the cross sections (both campaigns saw the
				// same fluence, so the intervals are directly comparable).
				checkOverlap(t, "SDC cross section", exact.SDCCrossSection, biased.SDCCrossSection)
				checkOverlap(t, "DUE cross section", exact.DUECrossSection, biased.DUECrossSection)
				// ESS sanity: 0 < ESS ≤ N on every non-empty tally.
				for name, tally := range map[string]stats.Weighted{
					"draws": w.Draws, "sdc": w.SDC, "due": w.DUE, "masked": w.Masked,
				} {
					if tally.N == 0 {
						continue
					}
					ess := tally.ESS()
					if !(ess > 0 && ess <= float64(tally.N)*(1+1e-12)) {
						t.Errorf("%s: ESS %v outside (0, n=%d]", name, ess, tally.N)
					}
				}
			})
		}
	}
}

// compareChannel asserts a weighted tally estimates the exact count
// within 5 combined sigmas. The tolerance comes from the data: Poisson
// variance (the count) on the exact side, ΣW² on the weighted side. A
// floor of one event keeps zero-count channels from demanding exactness.
func compareChannel(t *testing.T, name string, exactCount int64, w stats.Weighted) {
	t.Helper()
	sigma := math.Sqrt(float64(exactCount) + w.SumSquares() + 1)
	if diff := math.Abs(w.SumW - float64(exactCount)); diff > 5*sigma {
		t.Errorf("%s: weighted estimate %.2f vs exact count %d differs by %.1f sigma (sigma=%.2f, ess=%.1f)",
			name, w.SumW, exactCount, diff/sigma, sigma, w.ESS())
	}
}

// checkOverlap asserts two 95% intervals intersect.
func checkOverlap(t *testing.T, name string, a, b stats.RateEstimate) {
	t.Helper()
	if a.Upper < b.Lower || b.Upper < a.Lower {
		t.Errorf("%s: 95%% CIs disjoint: exact [%.3g, %.3g] vs biased [%.3g, %.3g]",
			name, a.Lower, a.Upper, b.Lower, b.Upper)
	}
}
