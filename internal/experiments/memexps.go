package experiments

import (
	"context"
	"fmt"

	"neutronsim/internal/fit"
	"neutronsim/internal/memsim"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/units"
)

// memoryHours returns the thermal campaign length per scale.
func memoryHours(scale Scale) float64 {
	if scale == Full {
		return 60
	}
	return 8
}

// E4DDR regenerates Fig. DDRCS and the commented DDR_errors figure: DDR3
// vs DDR4 thermal cross sections per Gbit, flip-direction bias, category
// shares, and the single/multi-bit split.
func E4DDR(scale Scale, seed uint64) (Table, error) {
	hours := memoryHours(scale)
	t := Table{
		ID:    "E4",
		Title: "DDR thermal-neutron cross sections and taxonomy (Fig. DDRCS)",
		Header: []string{"module", "σ/Gbit [cm²]", "95% CI", "bias", "bias frac",
			"transient", "intermittent", "permanent", "SEFI", "single-bit", "multi-bit"},
	}
	var sig3, sig4 float64
	for i, spec := range []memsim.ModuleSpec{memsim.DDR3Module(), memsim.DDR4Module()} {
		hrs := hours
		if spec.Generation == memsim.DDR4 {
			hrs *= 4 // DDR4 errors are ~10× rarer; match statistics
		}
		res, err := memsim.RunContext(context.Background(), memsim.Config{
			Spec:            spec,
			Band:            memsim.ThermalBeam,
			Flux:            spectrum.ROTAXTotalFlux,
			DurationSeconds: hrs * 3600,
			Seed:            seed + uint64(i),
		})
		if err != nil {
			return Table{}, err
		}
		dir, bias := res.DirectionBias()
		total := float64(res.Events)
		share := func(c memsim.Category) string {
			if total == 0 {
				return "n/a"
			}
			return pct(float64(res.ByCategory[c]) / total)
		}
		t.Rows = append(t.Rows, []string{
			spec.String(),
			f3(res.SigmaPerGbit.Rate),
			fmt.Sprintf("[%s, %s]", f3(res.SigmaPerGbit.Lower), f3(res.SigmaPerGbit.Upper)),
			dir.String(), pct(bias),
			share(memsim.Transient), share(memsim.Intermittent),
			share(memsim.Permanent), share(memsim.SEFI),
			fmt.Sprintf("%d", res.SingleBitEvents),
			fmt.Sprintf("%d", res.MultiBitEvents),
		})
		if spec.Generation == memsim.DDR3 {
			sig3 = res.SigmaPerGbit.Rate
		} else {
			sig4 = res.SigmaPerGbit.Rate
		}
	}
	if sig4 > 0 {
		t.Notes = append(t.Notes,
			fmt.Sprintf("DDR3/DDR4 σ ratio = %.1f (paper: ~one order of magnitude)", sig3/sig4))
	}
	t.Notes = append(t.Notes,
		"paper: >95% of errors in one direction (DDR3 1→0, DDR4 0→1)",
		"paper: permanents >50% on DDR4, <30% on DDR3; SEFIs on both",
		"paper: all transient/intermittent errors single-bit (SECDED sufficient)",
		"ChipIR runs aborted after minutes due to permanent-fault pile-up (see TestChipIRAbortsOnPermanents)",
	)
	return t, nil
}

// E6SupercomputerFIT regenerates the commented HPC_FIT figure: projected
// whole-system DDR thermal FIT for the June-2019 Top-10, from measured
// per-Gbit cross sections and site-adjusted thermal fluxes.
func E6SupercomputerFIT(scale Scale, seed uint64) (Table, error) {
	hours := memoryHours(scale)
	sigmas := map[memsim.Generation]units.CrossSection{}
	var eccResidual float64
	for i, spec := range []memsim.ModuleSpec{memsim.DDR3Module(), memsim.DDR4Module()} {
		hrs := hours
		if spec.Generation == memsim.DDR4 {
			hrs *= 4
		}
		res, err := memsim.RunContext(context.Background(), memsim.Config{
			Spec:            spec,
			Band:            memsim.ThermalBeam,
			Flux:            spectrum.ROTAXTotalFlux,
			DurationSeconds: hrs * 3600,
			ECC:             true,
			Seed:            seed + 100 + uint64(i),
		})
		if err != nil {
			return Table{}, err
		}
		sigmas[spec.Generation] = units.CrossSection(res.SigmaPerGbit.Rate)
		if res.Events > 0 {
			// SEFI share defeats SECDED; use the DDR3 (worst) share.
			r := float64(res.ByCategory[memsim.SEFI]) / float64(res.Events)
			if r > eccResidual {
				eccResidual = r
			}
		}
	}
	rows, err := fit.ProjectTop10(fit.Top10(), sigmas, eccResidual)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:    "E6",
		Title: "Projected DDR thermal FIT, Top-10 supercomputers (HPC_FIT)",
		Header: []string{"machine", "site", "alt [m]", "memory [TB]", "gen",
			"thermal FIT", "rainy-day FIT", "with SECDED"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Machine.Name, r.Machine.Site,
			fmt.Sprintf("%.0f", r.Machine.AltitudeM),
			fmt.Sprintf("%.0f", r.Machine.MemoryTB),
			r.Machine.Generation.String(),
			f3(float64(r.ThermalFIT)),
			f3(float64(r.RainyDayFIT)),
			f3(float64(r.WithECC)),
		})
	}
	t.Notes = append(t.Notes,
		"Trinity's altitude (Los Alamos, 2231 m) dominates its per-TB rate",
		"DDR3 machines (TaihuLight, Tianhe-2A) pay the ~10× cross-section penalty",
		fmt.Sprintf("SECDED residual (SEFI share) = %s", pct(eccResidual)),
	)
	return t, nil
}
