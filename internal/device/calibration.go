package device

import (
	"context"
	"errors"

	"neutronsim/internal/rng"
	"neutronsim/internal/units"
)

// RatioTargets lists the fast:thermal total-upset cross-section ratios the
// calibration aims for, derived from the paper's Fig. cs_ratio values by
// separating the published SDC and DUE ratios with the per-band control
// fractions (see catalog.go):
//
//	R_SDC = Rt × (1-cfFast)/(1-cfThermal),  R_DUE = Rt × cfFast/cfThermal.
//
// Solving both published ratios for each device yields Rt and cfThermal.
// A second calibration round against full campaign pipelines (workload
// masking included) refined the first-round values; see catalog.go.
var RatioTargets = map[string]float64{
	"XeonPhi":     8.46,
	"K20":         2.25,
	"TitanX":      3.70,
	"TitanV":      2.68,
	"APU-CPU":     1.98,
	"APU-GPU":     1.75,
	"APU-CPU+GPU": 1.64,
	"Zynq7000":    2.59,
}

// MeasuredRatio estimates the device's fast:thermal total upset
// cross-section ratio by Monte Carlo against the two beam energy samplers
// (typically ChipIR and ROTAX spectra).
func MeasuredRatio(d *Device, fastBeam, thermalBeam func(*rng.Stream) units.Energy, n int, s *rng.Stream) (float64, error) {
	sigmaF, err := d.UpsetCrossSection(context.Background(), fastBeam, n, s)
	if err != nil {
		return 0, err
	}
	sigmaT, err := d.UpsetCrossSection(context.Background(), thermalBeam, n, s)
	if err != nil {
		return 0, err
	}
	if sigmaT <= 0 {
		return 0, errors.New("device: zero thermal cross section (boron-free device?)")
	}
	return float64(sigmaF) / float64(sigmaT), nil
}
