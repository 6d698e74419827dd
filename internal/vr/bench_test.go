package vr

import (
	"testing"

	"neutronsim/internal/beam"
	"neutronsim/internal/plan"
)

// TestVRCompareQuick runs a shortened E3 comparison as a tier-1 smoke
// test: the identity gate must hold and the report must be coherent. The
// 20× reduction floor is only enforced at full statistics, by the vr row
// of the root BenchmarkGates table — a 6000-second campaign records too
// few exact thermal DUEs to pin a factor.
func TestVRCompareQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping E3 comparison in -short mode")
	}
	o := DefaultOptions()
	o.DurationSeconds = 6000
	rep, err := Compare(o)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.IdentityBitExact {
		t.Error("zero-bias campaign diverged from the exact campaign")
	}
	if rep.ExactThermalDUE <= 0 || rep.BiasedThermalDUEHits <= rep.ExactThermalDUE {
		t.Errorf("biased campaign should oversample the thermal-DUE channel: exact %d, biased hits %d",
			rep.ExactThermalDUE, rep.BiasedThermalDUEHits)
	}
	if rep.BiasedChannelESS <= 0 || rep.BiasedChannelESS > float64(rep.BiasedThermalDUEHits) {
		t.Errorf("channel ESS %v outside (0, hits=%d]", rep.BiasedChannelESS, rep.BiasedThermalDUEHits)
	}
	if rep.NeutronBudgetReduction <= 1 {
		t.Errorf("biased campaign is no better than exact: reduction %v", rep.NeutronBudgetReduction)
	}
	if rep.ESSPerSecond <= 0 {
		t.Errorf("ESS per second %v", rep.ESSPerSecond)
	}
}

// BenchmarkVRBiasedCampaign measures the throughput of the biased run
// loop on a small E3 slice (the compiled biased plan is cached after the
// first iteration, so steady state times the weighted runner itself).
func BenchmarkVRBiasedCampaign(b *testing.B) {
	o := DefaultOptions()
	o.DurationSeconds = 250
	cfg := o.config()
	cfg.Bias = &plan.Bias{Thermal: o.ThermalFactor}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := beam.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
