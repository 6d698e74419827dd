package experiments

import (
	"context"
	"fmt"

	"neutronsim/internal/detector"
	"neutronsim/internal/plot"
	"neutronsim/internal/rng"
	"neutronsim/internal/stats"
)

// E5Detector regenerates Fig. "turkeypan": the Tin-II hourly thermal count
// series with two inches of water placed over the detector partway
// through, and the detected step.
func E5Detector(scale Scale, seed uint64) (Table, error) {
	s := rng.New(seed)
	cfg := detector.Config{}
	if scale == Quick {
		cfg.EfficiencySamples = 5000
	}
	det, err := detector.New(cfg, s)
	if err != nil {
		return Table{}, err
	}
	expCfg := detector.WaterExperimentConfig{Detector: det}
	if scale == Quick {
		expCfg.TransportSamples = 8000
	}
	res, err := detector.RunWaterExperimentContext(context.Background(), expCfg, s)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "E5",
		Title:  "Tin-II thermal counts, water placed over detector (Fig. turkeypan)",
		Header: []string{"day", "mean bare [counts/h]", "mean shielded [counts/h]", "mean thermal estimate [counts/h]"},
	}
	days := res.Series.Hours() / 24
	for d := 0; d < days; d++ {
		lo, hi := d*24, (d+1)*24
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", d+1),
			f3(stats.Mean(res.Series.Bare[lo:hi])),
			f3(stats.Mean(res.Series.Shielded[lo:hi])),
			f3(stats.Mean(res.Series.ThermalEstimate[lo:hi])),
		})
	}
	chart, chartErr := plot.TimeSeries(
		"Tin-II thermal counts, water placed over detector (Fig. turkeypan)",
		"hour", "counts/h",
		[]string{"thermal estimate (bare - shielded)", "24h moving average"},
		res.Series.ThermalEstimate,
		stats.MovingAverage(res.Series.ThermalEstimate, 24),
	)
	if chartErr == nil {
		t.Figures = append(t.Figures, NamedFigure{Name: "counts", Figure: chart})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("transport-computed water enhancement = %s (paper: ~24%%)", pct(res.Enhancement)),
		fmt.Sprintf("detected step at hour %d (water placed at hour %d), rel. change %s, z=%.1f",
			res.Change.Index, res.WaterHour, pct(res.Change.RelChange), res.Change.ZScore),
		fmt.Sprintf("detector efficiency %.2f, Cd shield leak %.2g", det.Efficiency, det.ShieldLeak),
	)
	return t, nil
}
