package experiments

import (
	"context"
	"fmt"
	"strings"

	"neutronsim/internal/beam"
	"neutronsim/internal/device"
	"neutronsim/internal/faultinject"
	"neutronsim/internal/materials"
	"neutronsim/internal/memsim"
	"neutronsim/internal/rng"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/stats"
	"neutronsim/internal/transport"
	"neutronsim/internal/units"
	"neutronsim/internal/workload"
)

// AllAblations lists the design-choice ablations called out in DESIGN.md §5.
func AllAblations() []Descriptor {
	return []Descriptor{
		{"A1", "transport scattering anisotropy vs moderation factors", A1TransportAnisotropy},
		{"A2", "fault-injection timing granularity vs measured AVF", A2InjectionTiming},
		{"A3", "ECC on/off vs DDR thermal FIT", A3ECCFIT},
		{"A4", "multi-board derating vs single-board cross sections", A4Derating},
		{"A5", "thermal-band boundary 0.5 eV vs 0.4 eV (Cd cutoff)", A5ThermalBoundary},
		{"A6", "fault-injection AVF vs problem size", A6ProblemSize},
		{"A7", "device-sample cross-section variation (~10%)", A7SampleVariation},
	}
}

// A1TransportAnisotropy checks how sensitive the water/concrete moderation
// factors are to the isotropic-scattering approximation by re-running the
// albedo study with forward-biased re-emission.
func A1TransportAnisotropy(scale Scale, seed uint64) (Table, error) {
	n := transportBudget(scale)
	s := rng.New(seed)
	t := Table{
		ID:     "A1",
		Title:  "Thermal albedo vs scattering anisotropy",
		Header: []string{"moderator", "forward bias", "thermal albedo"},
	}
	for _, mat := range []*materials.Material{materials.Water(), materials.Concrete()} {
		thickness := 5.08
		if mat.Name() == "concrete" {
			thickness = 30
		}
		for _, bias := range []float64{0, 0.2, 0.4} {
			tally, err := transport.SimulateContext(context.Background(),
				[]transport.Slab{{Material: mat, Thickness: thickness}},
				n, atmosphericFast, s, transport.Options{ForwardBias: bias})
			if err != nil {
				return Table{}, err
			}
			t.Rows = append(t.Rows, []string{
				mat.Name(), f3(bias), f3(tally.ReflectedThermalFraction()),
			})
		}
	}
	t.Notes = append(t.Notes,
		"forward-peaked scattering reduces back-scatter; the calibrated coupling factor absorbs the difference",
	)
	return t, nil
}

// A2InjectionTiming compares measuring AVF with faults injected at a fixed
// early step against faults spread uniformly over the execution — the
// step-granularity choice of the injector.
func A2InjectionTiming(scale Scale, seed uint64) (Table, error) {
	runs := 300
	if scale == Full {
		runs = 2000
	}
	s := rng.New(seed)
	t := Table{
		ID:     "A2",
		Title:  "AVF vs fault-injection timing",
		Header: []string{"benchmark", "timing", "SDC frac", "DUE frac", "masked frac"},
	}
	for _, name := range []string{"MxM", "BFS", "YOLO"} {
		w, err := workload.New(name)
		if err != nil {
			return Table{}, err
		}
		inj, err := faultinject.NewInjector(w, 42, faultinject.Config{})
		if err != nil {
			return Table{}, err
		}
		template := device.Fault{Target: device.TargetMemory, Bits: 1}
		measure := func(fixedStep bool) (faultinject.AVF, error) {
			avf := faultinject.AVF{Runs: runs}
			for i := 0; i < runs; i++ {
				step := 0
				if !fixedStep {
					step = s.Intn(w.Steps())
				}
				res := inj.Run([]faultinject.Timed{{Step: step, Fault: template}}, s)
				switch res.Outcome {
				case faultinject.OutcomeSDC:
					avf.SDC++
				case faultinject.OutcomeDUE:
					avf.DUE++
				default:
					avf.Masked++
				}
			}
			return avf, nil
		}
		for _, mode := range []struct {
			label string
			fixed bool
		}{{"step 0 only", true}, {"uniform steps", false}} {
			avf, err := measure(mode.fixed)
			if err != nil {
				return Table{}, err
			}
			t.Rows = append(t.Rows, []string{
				name, mode.label,
				pct(avf.SDCFraction()), pct(avf.DUEFraction()), pct(avf.MaskedFraction()),
			})
		}
	}
	t.Notes = append(t.Notes,
		"early faults have the whole execution to propagate; uniform timing (the default) is the beam-faithful choice",
	)
	return t, nil
}

// A3ECCFIT quantifies what SECDED buys for the DDR thermal FIT: with ECC,
// only multi-bit (SEFI) words survive.
func A3ECCFIT(scale Scale, seed uint64) (Table, error) {
	hours := memoryHours(scale)
	t := Table{
		ID:     "A3",
		Title:  "DDR thermal FIT with and without SECDED",
		Header: []string{"module", "events", "ECC-corrected words", "uncorrectable words", "residual event share"},
	}
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
			Seed:            seed + uint64(i),
		})
		if err != nil {
			return Table{}, err
		}
		residual := 0.0
		if res.Events > 0 {
			residual = float64(res.ByCategory[memsim.SEFI]) / float64(res.Events)
		}
		t.Rows = append(t.Rows, []string{
			spec.Generation.String(),
			fmt.Sprintf("%d", res.Events),
			fmt.Sprintf("%d", res.ECCCorrected),
			fmt.Sprintf("%d", res.ECCUncorrectable),
			pct(residual),
		})
	}
	t.Notes = append(t.Notes,
		"paper: transients/intermittents are single-bit (SECDED corrects them); SEFIs are not",
	)
	return t, nil
}

// a4Accelerator scales K20's sensitive fraction for A4's statistics. σ
// does not depend on it while λ ≪ 1: it is small enough that every A4
// campaign auto-tunes to λ ≈ 0.05 below beam.MaxAutoRuns at both scales
// (TestBoostedAblationsStayUnderAutoRunCap). Above the cap runs stretch,
// several faults pile into one run and count as one event, and σ reads
// low, the more so the higher the flux.
const a4Accelerator = 4

// a4Configs returns A4's campaigns, one per derating, each with the same
// statistics budget.
func a4Configs(scale Scale, seed uint64) []beam.Config {
	duration := 1.0
	if scale == Full {
		duration = 20
	}
	d := device.K20()
	d.SensitiveFraction *= a4Accelerator
	var cfgs []beam.Config
	for _, derating := range []float64{1.0, 0.5, 0.25} {
		cfgs = append(cfgs, beam.Config{
			Device:          d,
			WorkloadName:    "MxM",
			Beam:            spectrum.ChipIR(),
			DurationSeconds: duration * 3600 * derating,
			Derating:        derating,
			Seed:            seed,
		})
	}
	return cfgs
}

// A4Derating verifies the multi-board ChipIR setup: a board at half flux
// (derating 0.5) must measure the same cross section as a board on the
// axis, which is what justifies testing several boards in parallel. The
// upsets-per-run column shows the pile-up control: it must stay ≪ 1.
func A4Derating(scale Scale, seed uint64) (Table, error) {
	t := Table{
		ID:     "A4",
		Title:  "Cross section vs beam derating (multi-board ChipIR setup)",
		Header: []string{"derating", "fluence [n/cm²]", "SDC", "σ_SDC [cm²]", "upsets/run"},
	}
	for _, cfg := range a4Configs(scale, seed) {
		res, err := beam.RunContext(context.Background(), cfg)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			f3(cfg.Derating), f3(float64(res.Fluence)),
			fmt.Sprintf("%d", res.SDC), f3(res.SDCCrossSection.Rate),
			f3(float64(res.Upsets) / float64(res.Runs)),
		})
	}
	t.Notes = append(t.Notes,
		"cross sections agree across deratings: off-axis boards measure the same physics",
	)
	return t, nil
}

// A5ThermalBoundary measures how the thermal-band bookkeeping shifts if the
// band boundary moves from the paper's 0.5 eV to the 0.4 eV cadmium cutoff.
func A5ThermalBoundary(scale Scale, seed uint64) (Table, error) {
	n := 100000
	if scale == Full {
		n = 1000000
	}
	s := rng.New(seed)
	t := Table{
		ID:     "A5",
		Title:  "Thermal-band flux share vs boundary definition",
		Header: []string{"beam", "share < 0.4 eV", "share < 0.5 eV", "difference"},
	}
	for _, sp := range []spectrum.Spectrum{spectrum.ChipIR(), spectrum.ROTAX()} {
		var below04, below05 int
		for i := 0; i < n; i++ {
			e := sp.Sample(s)
			if e < units.Energy(0.4) {
				below04++
			}
			if e < units.Energy(0.5) {
				below05++
			}
		}
		f04 := float64(below04) / float64(n)
		f05 := float64(below05) / float64(n)
		t.Rows = append(t.Rows, []string{sp.Name(), pct(f04), pct(f05), pct(f05 - f04)})
	}
	t.Notes = append(t.Notes,
		"the Maxwellian sits far below either boundary, so the 0.4 vs 0.5 eV choice is immaterial",
	)
	return t, nil
}

// A6ProblemSize measures how the fault-injection AVF depends on the
// problem size — a check that the workload-level masking behind the
// code-to-code cross-section differences is not an artifact of the chosen
// input dimensions.
func A6ProblemSize(scale Scale, seed uint64) (Table, error) {
	runs := 250
	if scale == Full {
		runs = 1500
	}
	s := rng.New(seed)
	t := Table{
		ID:     "A6",
		Title:  "AVF vs problem size",
		Header: []string{"benchmark", "size", "SDC frac", "DUE frac", "masked frac"},
	}
	cases := []struct {
		label string
		build func() workload.Workload
	}{
		{"MxM 12", func() workload.Workload { return workload.NewMxM(12) }},
		{"MxM 24", func() workload.Workload { return workload.NewMxM(24) }},
		{"MxM 48", func() workload.Workload { return workload.NewMxM(48) }},
		{"BFS 256", func() workload.Workload { return workload.NewBFS(256, 4) }},
		{"BFS 1024", func() workload.Workload { return workload.NewBFS(1024, 4) }},
		{"BFS 4096", func() workload.Workload { return workload.NewBFS(4096, 4) }},
	}
	for _, c := range cases {
		inj, err := faultinject.NewInjector(c.build(), 42, faultinject.Config{})
		if err != nil {
			return Table{}, err
		}
		avf, err := faultinject.MeasureAVF(inj,
			device.Fault{Target: device.TargetMemory, Bits: 1}, runs, s)
		if err != nil {
			return Table{}, err
		}
		parts := strings.SplitN(c.label, " ", 2)
		t.Rows = append(t.Rows, []string{
			parts[0], parts[1],
			pct(avf.SDCFraction()), pct(avf.DUEFraction()), pct(avf.MaskedFraction()),
		})
	}
	t.Notes = append(t.Notes,
		"single-fault AVF is size-stable for dense kernels; sparse/control-heavy codes shift with structure size",
	)
	return t, nil
}

// a7Accelerator scales K20's sensitive fraction for A7's statistics,
// identically for every sample. Like a4Accelerator it keeps every sample's
// campaign below beam.MaxAutoRuns at both scales, with room for the
// samples' spread, so each runs at λ ≈ 0.05 and its σ does not depend on it.
const a7Accelerator = 20

// a7Configs returns A7's campaigns, one per manufacturing sample of K20.
func a7Configs(scale Scale, seed uint64) []beam.Config {
	samples := 6
	duration := 1200.0
	if scale == Full {
		samples = 12
		duration = 7200
	}
	s := rng.New(seed)
	base := device.K20()
	base.SensitiveFraction *= a7Accelerator
	var cfgs []beam.Config
	for i := 0; i < samples; i++ {
		cfgs = append(cfgs, beam.Config{
			Device:          device.Sample(base, s),
			WorkloadName:    "MxM",
			Beam:            spectrum.ChipIR(),
			DurationSeconds: duration,
			Seed:            seed + uint64(i),
		})
	}
	return cfgs
}

// A7SampleVariation reproduces the companion-study remark that the
// high-energy error-rate variation among samples of the same device is
// about 10%: several manufacturing samples of the K20 are put through the
// same ChipIR campaign and the spread of their cross sections is reported.
func A7SampleVariation(scale Scale, seed uint64) (Table, error) {
	t := Table{
		ID:     "A7",
		Title:  "Cross-section variation across device samples",
		Header: []string{"sample", "σ_SDC ChipIR [cm²]", "vs sample mean"},
	}
	var sigmas []float64
	for _, cfg := range a7Configs(scale, seed) {
		res, err := beam.RunContext(context.Background(), cfg)
		if err != nil {
			return Table{}, err
		}
		sigmas = append(sigmas, res.SDCCrossSection.Rate)
	}
	summary, err := stats.Summarize(sigmas)
	if err != nil {
		return Table{}, err
	}
	for i, sigma := range sigmas {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("#%d", i+1), f3(sigma),
			fmt.Sprintf("%+.1f%%", (sigma/summary.Mean-1)*100),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("relative spread (std/mean) = %s (companion studies: ~10%%)",
			pct(summary.Std/summary.Mean)),
	)
	return t, nil
}
