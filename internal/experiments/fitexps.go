package experiments

import (
	"context"

	"neutronsim/internal/core"
	"neutronsim/internal/device"
	"neutronsim/internal/fit"
)

// E7FITShares regenerates the commented FIT-rates-all-devices figure: the
// percentage of each device's SDC and DUE FIT due to thermal neutrons at
// NYC and Leadville, with the +44% material adjustment applied to the
// thermal flux.
func E7FITShares(scale Scale, seed uint64) (Table, error) {
	as, err := assessAll(scale, seed)
	if err != nil {
		return Table{}, err
	}
	envs := []fit.Environment{
		fit.DataCenter(fit.NYC()),
		fit.DataCenter(fit.Leadville()),
	}
	rows, err := core.ShareTable(as, envs)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "E7",
		Title:  "Thermal share of total FIT (FIT-rates-all-devices)",
		Header: []string{"device", "environment", "SDC thermal share", "DUE thermal share", "total FIT"},
		Notes: []string{
			"paper quotes: XeonPhi 4.2% (NYC SDC) … 10.6% (Leadville DUE);",
			"K20 29% SDC at Leadville; APU CPU+GPU 39% DUE at Leadville",
			"thermal flux includes the +44% concrete+water adjustment",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Device, r.Environment,
			pct(r.SDCThermalShare), pct(r.DUEThermalShare),
			f3(float64(r.TotalFIT)),
		})
	}
	return t, nil
}

// E8Rain regenerates the rain scenario of §VI: an autonomous-vehicle GPU
// (TitanX running YOLO) on a sunny vs a rainy day — rain doubles the
// thermal flux and with it the thermal FIT contribution.
func E8Rain(scale Scale, seed uint64) (Table, error) {
	budget := core.QuickBudget()
	if scale == Full {
		budget = core.Budget{FastSeconds: 2 * 3600, ThermalSeconds: 20 * 3600, Boost: 10}
	}
	a, err := core.AssessContext(context.Background(), device.TitanX(), []string{"YOLO"}, budget, seed)
	if err != nil {
		return Table{}, err
	}
	street := fit.Environment{Location: fit.NYC(), ConcreteFloor: true} // asphalt/concrete road
	rainy := street
	rainy.Raining = true
	t := Table{
		ID:     "E8",
		Title:  "Autonomous-vehicle GPU error rate, sunny vs rainy (§VI)",
		Header: []string{"weather", "SDC FIT", "DUE FIT", "total FIT", "thermal share"},
	}
	for _, env := range []fit.Environment{street, rainy} {
		rep, err := a.FIT(env)
		if err != nil {
			return Table{}, err
		}
		weather := "sunny"
		if env.Raining {
			weather = "rainy"
		}
		total := rep.Total()
		share := float64(rep.SDC.Thermal+rep.DUE.Thermal) / float64(total)
		t.Rows = append(t.Rows, []string{
			weather,
			f3(float64(rep.SDC.Total())),
			f3(float64(rep.DUE.Total())),
			f3(float64(total)),
			pct(share),
		})
	}
	t.Notes = append(t.Notes,
		"paper (after ziegler2003): thermal flux can be 2× higher during a thunderstorm",
	)
	return t, nil
}
