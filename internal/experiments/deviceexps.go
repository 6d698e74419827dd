package experiments

import (
	"context"
	"fmt"

	"neutronsim/internal/device"
	"neutronsim/internal/rng"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/units"
)

// E9SensitivitySpan reproduces the Weulersse-et-al. observation the paper
// cites (§II): across memory devices, the thermal sensitivity spans from
// ≈1.4× down to ≈0.03× the high-energy sensitivity — entirely a function
// of how much ¹⁰B each part contains. We sweep the boron areal density of
// an SRAM-like part and report the thermal:fast cross-section ratio.
func E9SensitivitySpan(scale Scale, seed uint64) (Table, error) {
	n := 60000
	if scale == Full {
		n = 400000
	}
	s := rng.New(seed)
	chip := spectrum.ChipIR()
	rotax := spectrum.ROTAX()
	fast := func(st *rng.Stream) units.Energy { return chip.Sample(st) }
	thermal := func(st *rng.Stream) units.Energy { return rotax.Sample(st) }
	t := Table{
		ID:     "E9",
		Title:  "Thermal:fast sensitivity vs boron content (Weulersse span, §II)",
		Header: []string{"¹⁰B areal density [at/cm²]", "σ_thermal/σ_fast"},
	}
	var minRatio, maxRatio float64
	for _, boron := range []float64{3e12, 1e13, 3e13, 1e14, 3e14, 1e15} {
		d := device.K20() // SRAM-like planar part as the template
		d.Name = "SRAM-sweep"
		d.Boron10PerCm2 = boron
		r, err := device.MeasuredRatio(d, fast, thermal, n, s)
		if err != nil {
			return Table{}, err
		}
		inv := 1 / r // the paper's related work quotes thermal:fast
		t.Rows = append(t.Rows, []string{f3(boron), f3(inv)})
		if minRatio == 0 || inv < minRatio {
			minRatio = inv
		}
		if inv > maxRatio {
			maxRatio = inv
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("span covers %.3g – %.3g (paper quotes 0.03 – 1.4)", minRatio, maxRatio),
		"boron-free parts are immune to thermals (ratio → 0)",
	)
	return t, nil
}

// E11BPSG reproduces the historical borophosphosilicate-glass problem
// (§II, baumann1995boron): re-adding a BPSG layer multiplies the thermal
// error rate ≈8×, which is why manufacturers removed it.
func E11BPSG(scale Scale, seed uint64) (Table, error) {
	n := 100000
	if scale == Full {
		n = 600000
	}
	s := rng.New(seed)
	rotax := spectrum.ROTAX()
	thermal := func(st *rng.Stream) units.Energy { return rotax.Sample(st) }
	base := device.K20()
	bpsg := device.WithBPSG(base)
	depleted := device.BoronFree(base)
	t := Table{
		ID:     "E11",
		Title:  "BPSG ablation: thermal upset cross section (§II)",
		Header: []string{"variant", "σ_thermal [cm²]", "vs baseline"},
	}
	sigmaBase, err := base.UpsetCrossSection(context.Background(), thermal, n, s)
	if err != nil {
		return Table{}, err
	}
	for _, d := range []*device.Device{base, bpsg, depleted} {
		sigma, err := d.UpsetCrossSection(context.Background(), thermal, n, s)
		if err != nil {
			return Table{}, err
		}
		rel := "n/a"
		if sigmaBase > 0 {
			rel = fmt.Sprintf("%.2fx", float64(sigma)/float64(sigmaBase))
		}
		t.Rows = append(t.Rows, []string{d.Name, f3(float64(sigma)), rel})
	}
	t.Notes = append(t.Notes,
		"paper: BPSG increased upsets ~8×; removing boron entirely makes the device immune",
	)
	return t, nil
}
