package experiments

import (
	"context"
	"fmt"

	"neutronsim/internal/beam"
	"neutronsim/internal/checkpoint"
	"neutronsim/internal/core"
	"neutronsim/internal/device"
	"neutronsim/internal/fit"
	"neutronsim/internal/fleet"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/units"
)

// E13FPGAPrecision reproduces the companion study's FPGA observation
// preserved in the paper's source: implementing MNIST in double precision
// takes about twice the fabric resources, roughly doubling the high-energy
// cross section but almost quadrupling the thermal one.
func E13FPGAPrecision(scale Scale, seed uint64) (Table, error) {
	fast := 600.0
	thermal := 3600.0
	if scale == Full {
		fast, thermal = 3600, 6*3600
	}
	t := Table{
		ID:     "E13",
		Title:  "FPGA MNIST precision: single vs double (companion study)",
		Header: []string{"variant", "σ_SDC ChipIR [cm²]", "σ_SDC ROTAX [cm²]"},
	}
	var sigmaF, sigmaT [2]float64
	for i, double := range []bool{false, true} {
		d := device.FPGAPrecision(double)
		d.SensitiveFraction *= 50 // statistics accelerator; cancels in ratios while λ ≪ 1
		fres, err := beam.RunContext(context.Background(), beam.Config{
			Device: d, WorkloadName: "MNIST", Beam: spectrum.ChipIR(),
			DurationSeconds: fast, Seed: seed + uint64(i),
		})
		if err != nil {
			return Table{}, err
		}
		tres, err := beam.RunContext(context.Background(), beam.Config{
			Device: d, WorkloadName: "MNIST", Beam: spectrum.ROTAX(),
			DurationSeconds: thermal, Seed: seed + 10 + uint64(i),
		})
		if err != nil {
			return Table{}, err
		}
		sigmaF[i] = fres.SDCCrossSection.Rate
		sigmaT[i] = tres.SDCCrossSection.Rate
		t.Rows = append(t.Rows, []string{d.Name, f3(sigmaF[i]), f3(sigmaT[i])})
	}
	if sigmaF[0] > 0 && sigmaT[0] > 0 {
		t.Notes = append(t.Notes,
			fmt.Sprintf("double/single fast ratio = %.2f (companion study: ~2, tracks area)",
				sigmaF[1]/sigmaF[0]),
			fmt.Sprintf("double/single thermal ratio = %.2f (companion study: almost 4)",
				sigmaT[1]/sigmaT[0]),
		)
	}
	return t, nil
}

// E14FieldStudy runs the fleet error-log pipeline: a year of a two-class
// machine room (dry aisle vs near the cooling loops), then recovers the
// rates from the log and tests the paper's prediction that the
// water-adjacent nodes fail more.
func E14FieldStudy(scale Scale, seed uint64) (Table, error) {
	nodes, days := 2000, 120
	if scale == Full {
		nodes, days = 8000, 365
	}
	site := fit.AtAltitude("Los Alamos", 2231)
	sigmas := fit.Sigmas{ // node-level: accelerator + unprotected DRAM
		SDCFast: 8e-7, SDCThermal: 8e-7,
		DUEFast: 3e-7, DUEThermal: 3e-7,
	}
	log, err := fleet.SimulateContext(context.Background(), fleet.Config{
		Classes: []fleet.NodeClass{
			{Name: "dry-aisle", Count: nodes,
				Env: fit.Environment{Location: site, ConcreteFloor: true}, Sigmas: sigmas},
			{Name: "near-cooling", Count: nodes,
				Env: fit.DataCenter(site), Sigmas: sigmas},
		},
		Days:            days,
		RainProbability: 0.25,
		Seed:            seed,
	})
	if err != nil {
		return Table{}, err
	}
	rep, err := fleet.Analyze(log)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "E14",
		Title:  "Fleet field study: node placement vs error rate (§II/§VI)",
		Header: []string{"class", "node-hours", "SDC", "DUE", "measured SDC FIT", "measured DUE FIT"},
	}
	for _, cr := range rep.PerClass {
		t.Rows = append(t.Rows, []string{
			cr.Class, f3(cr.NodeHours),
			fmt.Sprintf("%d", cr.SDC), fmt.Sprintf("%d", cr.DUE),
			f3(float64(cr.MeasuredSDCFIT)), f3(float64(cr.MeasuredDUEFIT)),
		})
	}
	for _, c := range rep.Comparisons {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%s vs %s: rate ratio %.3f, p=%.3g (significant: %v)",
			c.ClassB, c.ClassA, c.Total.Ratio, c.Total.PValue, c.Total.Significant))
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"rainy vs dry hours fleet-wide: ratio %.3f, p=%.3g",
		rep.RainEffect.Ratio, rep.RainEffect.PValue))
	return t, nil
}

// E15Checkpointing implements the paper's closing suggestion (§VI): tune
// the checkpoint frequency to the weather. A Trinity-like aggregate DUE
// rate moves with the thermal flux, so rainy days warrant a shorter
// checkpoint interval.
func E15Checkpointing(scale Scale, seed uint64) (Table, error) {
	budget := core.QuickBudget()
	if scale == Full {
		budget = core.Budget{FastSeconds: 2 * 3600, ThermalSeconds: 20 * 3600, Boost: 10}
	}
	// Per-node DUE rate from the most thermally DUE-sensitive part of the
	// catalog (the APU, whose CPU-GPU sync logic the paper flags).
	a, err := core.Assess(device.APU(device.APUCPUGPU), []string{"BFS"}, budget, seed)
	if err != nil {
		return Table{}, err
	}
	site := fit.AtAltitude("Los Alamos", 2231)
	sunnyRep, err := a.FIT(fit.DataCenter(site))
	if err != nil {
		return Table{}, err
	}
	rainyEnv := fit.DataCenter(site)
	rainyEnv.Raining = true
	rainyRep, err := a.FIT(rainyEnv)
	if err != nil {
		return Table{}, err
	}
	// A 9000-node machine: system MTBF is node MTBF / nodes.
	const nodes = 9000
	sunnyDUE := units.FIT(float64(sunnyRep.DUE.Total()) * nodes)
	rainyDUE := units.FIT(float64(rainyRep.DUE.Total()) * nodes)
	// A week with a wet spell.
	week := []checkpoint.Day{
		{Raining: false}, {Raining: false}, {Raining: true}, {Raining: true},
		{Raining: true}, {Raining: false}, {Raining: false},
	}
	const deltaSeconds = 1800 // 30-minute full-system checkpoint
	plan, err := checkpoint.PlanSchedule(sunnyDUE, rainyDUE, deltaSeconds, week)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "E15",
		Title:  "Weather-aware checkpoint schedule (§VI suggestion)",
		Header: []string{"day", "weather", "MTBF [h]", "interval [min]", "adaptive waste", "static waste"},
	}
	for i, d := range plan.Days {
		weather := "sunny"
		if d.Raining {
			weather = "rainy"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", i+1), weather,
			f3(d.MTBFSeconds / 3600),
			f3(d.IntervalSeconds / 60),
			pct(d.AdaptiveWaste), pct(d.StaticWaste),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("system DUE rate: %.3g FIT sunny, %.3g FIT rainy (%d nodes)",
			float64(sunnyDUE), float64(rainyDUE), nodes),
		fmt.Sprintf("adaptive policy saves %s of machine time over the week vs a sunny-calibrated static interval",
			pct(plan.Savings())),
		"the saving is modest because Daly's optimum is flat — the actionable part is the shorter rainy-day interval itself",
	)
	return t, nil
}
