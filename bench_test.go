package neutronsim

// One benchmark per paper table/figure: each runs the corresponding
// experiment generator end to end (Monte Carlo campaigns included) and
// reports per-artifact regeneration cost. Run with:
//
//	go test -run '^$' -bench . -skip '^BenchmarkGates$' -benchmem .
//
// The printable tables themselves come from cmd/paperfigs; these benches
// exist so `go test -bench` regenerates every artifact and exposes its
// cost. Each experiment benches with a fixed seed: the campaign-heavy
// experiments (E2/E3/E7) share a memoized assessment, so their reported
// per-iteration cost amortizes the one-time campaign across iterations.

import (
	"testing"

	"neutronsim/internal/experiments"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	desc, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tbl, err := desc.Run(experiments.Quick, 1000)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkE1BeamlineSpectra regenerates Fig. 2 (ChipIR vs ROTAX lethargy
// spectra).
func BenchmarkE1BeamlineSpectra(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2CrossSections regenerates the normalized cross-section
// figures (Fig. 1, cs_xeon_gpus, cs_APU_FPGA).
func BenchmarkE2CrossSections(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3CrossSectionRatio regenerates Fig. cs_ratio.
func BenchmarkE3CrossSectionRatio(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4DDRCrossSections regenerates Fig. DDRCS and DDR_errors.
func BenchmarkE4DDRCrossSections(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5DetectorWater regenerates Fig. turkeypan.
func BenchmarkE5DetectorWater(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6SupercomputerFIT regenerates the HPC_FIT projection.
func BenchmarkE6SupercomputerFIT(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7FITContribution regenerates FIT-rates-all-devices.
func BenchmarkE7FITContribution(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8RainScenario regenerates the §VI rain scenario.
func BenchmarkE8RainScenario(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9SensitivitySpan regenerates the Weulersse sensitivity span.
func BenchmarkE9SensitivitySpan(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10Shielding regenerates the §VI shielding survey.
func BenchmarkE10Shielding(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11BPSG regenerates the BPSG ablation.
func BenchmarkE11BPSG(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12Moderation regenerates the water/concrete moderation study.
func BenchmarkE12Moderation(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13FPGAPrecision regenerates the FPGA precision comparison.
func BenchmarkE13FPGAPrecision(b *testing.B) { benchExperiment(b, "E13") }

// BenchmarkE14FieldStudy regenerates the fleet error-log field study.
func BenchmarkE14FieldStudy(b *testing.B) { benchExperiment(b, "E14") }

// BenchmarkE15Checkpointing regenerates the weather-aware checkpoint plan.
func BenchmarkE15Checkpointing(b *testing.B) { benchExperiment(b, "E15") }

// BenchmarkE16Productivity regenerates the goodput simulation.
func BenchmarkE16Productivity(b *testing.B) { benchExperiment(b, "E16") }

// BenchmarkAssessK20 measures the cost of one full matched-campaign device
// assessment through the public API.
func BenchmarkAssessK20(b *testing.B) {
	d, err := DeviceByName("K20")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := Assess(d, []string{"MxM"}, QuickBudget(), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemoryCampaign measures one DDR3 thermal hour.
func BenchmarkMemoryCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunMemoryCampaign(DDR3Module(), 1, false, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWaterExperiment measures the full detector pipeline.
func BenchmarkWaterExperiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunWaterExperiment(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
