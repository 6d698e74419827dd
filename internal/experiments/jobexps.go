package experiments

import (
	"context"
	"fmt"

	"neutronsim/internal/checkpoint"
	"neutronsim/internal/core"
	"neutronsim/internal/device"
	"neutronsim/internal/fit"
	"neutronsim/internal/jobsim"
	"neutronsim/internal/rng"
	"neutronsim/internal/units"
)

// E16Productivity closes the loop on the paper's introduction — COTS
// unreliability means "lower scientific productivity" — with a
// discrete-event job simulation: a machine built from an assessed device
// runs a continuous job with checkpointing under failure rates derived
// from the beam measurements, at sea level and at altitude, dry and rainy.
// The measured goodput also validates the analytic Young/Daly model used
// everywhere else.
func E16Productivity(scale Scale, seed uint64) (Table, error) {
	budget := core.QuickBudget()
	horizonDays := 365.0
	if scale == Full {
		budget = core.Budget{FastSeconds: 2 * 3600, ThermalSeconds: 20 * 3600, Boost: 10}
		horizonDays = 3650
	}
	a, err := core.AssessContext(context.Background(), device.APU(device.APUCPUGPU), []string{"BFS"}, budget, seed)
	if err != nil {
		return Table{}, err
	}
	const nodes = 9000
	const delta = 1800.0 // 30-minute system checkpoint
	s := rng.New(seed)
	t := Table{
		ID:    "E16",
		Title: "Scientific productivity vs environment (goodput simulation)",
		Header: []string{"environment", "system MTBF [h]", "Daly interval [min]",
			"simulated goodput", "analytic goodput", "failures"},
	}
	scenarios := []struct {
		name string
		env  fit.Environment
	}{
		{"NYC data center", fit.DataCenter(fit.NYC())},
		{"Los Alamos data center", fit.DataCenter(fit.AtAltitude("Los Alamos", 2231))},
		{"Los Alamos, rainy", func() fit.Environment {
			e := fit.DataCenter(fit.AtAltitude("Los Alamos", 2231))
			e.Raining = true
			return e
		}()},
	}
	for _, sc := range scenarios {
		rep, err := a.FIT(sc.env)
		if err != nil {
			return Table{}, err
		}
		systemDUE := units.FIT(float64(rep.DUE.Total()) * nodes)
		mtbf := checkpoint.MTBFSeconds(systemDUE)
		tau, err := checkpoint.DalyInterval(delta, mtbf)
		if err != nil {
			return Table{}, err
		}
		p := jobsim.Params{
			MTBFSeconds:       mtbf,
			IntervalSeconds:   tau,
			CheckpointSeconds: delta,
			RestartSeconds:    delta,
			HorizonSeconds:    horizonDays * 86400,
		}
		res, err := jobsim.Simulate(p, s)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			sc.name,
			f3(mtbf / 3600),
			f3(tau / 60),
			pct(res.Goodput),
			pct(jobsim.PredictedGoodput(p)),
			fmt.Sprintf("%d", res.Failures),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d-node machine of APU-CPU+GPU accelerators, %.0f-min checkpoints, %.0f simulated days per row",
			nodes, delta/60, horizonDays),
		"the paper's intro in numbers: the same machine loses goodput moving to altitude, and more in rain",
	)
	return t, nil
}
