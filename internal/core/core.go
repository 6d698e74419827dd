// Package core implements the paper's primary contribution as a reusable
// engine: (1) measure a device's high-energy and thermal neutron
// sensitivity with matched beam campaigns, (2) fold in the environment's
// (material-adjusted) neutron fluxes, and (3) report the device's FIT
// rates and the thermal-neutron contribution to them.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"neutronsim/internal/beam"
	"neutronsim/internal/device"
	"neutronsim/internal/fit"
	"neutronsim/internal/plan"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/telemetry"
	"neutronsim/internal/telemetry/trace"
	"neutronsim/internal/units"
	"neutronsim/internal/workload"
)

// Budget sets the simulated beam time for an assessment. Thermal campaigns
// need far more time than fast ones because ROTAX's flux produces fewer
// device interactions per second (the paper tested one board at a time at
// ROTAX for the same reason).
type Budget struct {
	FastSeconds    float64
	ThermalSeconds float64
	// Boost multiplies the device's sensitive fraction to accelerate
	// statistics gathering. Both bands scale identically, so all ratios
	// and (boost-corrected) cross sections are preserved. 0 means 1.
	Boost float64
	// Shards caps how many shards each beam campaign executes
	// concurrently (default GOMAXPROCS). It never affects results; see
	// internal/engine.
	Shards int
	// Bias opts both campaigns into importance-sampled transport with the
	// given per-band oversampling factors (nil = exact). Results then
	// carry weighted tallies and ESS-gated confidence intervals; see
	// beam.Config.Bias.
	Bias *plan.Bias
}

// QuickBudget trades precision for speed (useful in examples and tests);
// the boost preserves ratios exactly and cross sections are corrected
// back.
func QuickBudget() Budget {
	return Budget{FastSeconds: 600, ThermalSeconds: 3600, Boost: 50}
}

func (b Budget) withDefaults() Budget {
	if b.FastSeconds <= 0 {
		b.FastSeconds = 2 * 3600
	}
	if b.ThermalSeconds <= 0 {
		b.ThermalSeconds = 40 * 3600
	}
	if b.Boost <= 0 {
		b.Boost = 1
	}
	return b
}

// Assessment is the measured sensitivity of one device across its
// benchmark set.
type Assessment struct {
	Device      *device.Device
	Workloads   []string
	PerWorkload map[string]beam.Pair
	// FastAvg and ThermalAvg merge all workloads (the device averages of
	// Fig. cs_ratio).
	FastAvg    *beam.Result
	ThermalAvg *beam.Result
	// Sigmas are the boost-corrected device cross sections feeding FIT
	// computation.
	Sigmas fit.Sigmas
}

// AssessContext runs the full matched-campaign protocol on a device. When
// workloads is nil, the paper's assignment for the device class is used.
// The assessment's trace spans nest under the caller's, per-campaign
// progress posts reach any observer attached with
// telemetry.ContextWithProgress, and cancellation aborts the protocol at
// the next shard boundary.
func AssessContext(ctx context.Context, d *device.Device, workloads []string, b Budget, seed uint64) (*Assessment, error) {
	if d == nil {
		return nil, errors.New("core: nil device")
	}
	ctx, span := trace.StartChild(ctx, "core.assess")
	defer span.End()
	defer telemetry.Default.Histogram("core.assess_seconds").ObserveSince(time.Now())
	b = b.withDefaults()
	if workloads == nil {
		workloads = workload.ForDeviceKind(d.Kind.String())
	}
	if len(workloads) == 0 {
		return nil, fmt.Errorf("core: no workloads for device %s", d.Name)
	}
	dut := *d
	if b.Boost != 1 {
		dut.SensitiveFraction *= b.Boost
		if dut.SensitiveFraction > 1 {
			return nil, fmt.Errorf("core: boost %v overflows sensitive fraction", b.Boost)
		}
	}
	a := &Assessment{
		Device:      d,
		Workloads:   append([]string(nil), workloads...),
		PerWorkload: map[string]beam.Pair{},
	}
	// One compiled spectrum per beamline for the whole assessment; the
	// per-workload campaigns share them instead of rebuilding the energy
	// tables inside the loop.
	chip := spectrum.ChipIR()
	rotax := spectrum.ROTAX()
	var fastResults, thermalResults []*beam.Result
	for i, wl := range workloads {
		fast, err := beam.RunContext(ctx, beam.Config{
			Device:          &dut,
			WorkloadName:    wl,
			Beam:            chip,
			DurationSeconds: b.FastSeconds,
			Seed:            seed + uint64(i)*2,
			Shards:          b.Shards,
			Bias:            b.Bias,
		})
		if err != nil {
			return nil, fmt.Errorf("core: %s/%s ChipIR: %w", d.Name, wl, err)
		}
		thermal, err := beam.RunContext(ctx, beam.Config{
			Device:          &dut,
			WorkloadName:    wl,
			Beam:            rotax,
			DurationSeconds: b.ThermalSeconds,
			Seed:            seed + uint64(i)*2 + 1,
			Shards:          b.Shards,
			Bias:            b.Bias,
		})
		if err != nil {
			return nil, fmt.Errorf("core: %s/%s ROTAX: %w", d.Name, wl, err)
		}
		a.PerWorkload[wl] = beam.Pair{Fast: fast, Thermal: thermal}
		fastResults = append(fastResults, fast)
		thermalResults = append(thermalResults, thermal)
	}
	var err error
	if a.FastAvg, err = beam.Merge(fastResults); err != nil {
		return nil, err
	}
	if a.ThermalAvg, err = beam.Merge(thermalResults); err != nil {
		return nil, err
	}
	a.Sigmas = fit.Sigmas{
		SDCFast:    units.CrossSection(a.FastAvg.SDCCrossSection.Rate / b.Boost),
		SDCThermal: units.CrossSection(a.ThermalAvg.SDCCrossSection.Rate / b.Boost),
		DUEFast:    units.CrossSection(a.FastAvg.DUECrossSection.Rate / b.Boost),
		DUEThermal: units.CrossSection(a.ThermalAvg.DUECrossSection.Rate / b.Boost),
	}
	return a, nil
}

// SDCRatio returns the device-average fast:thermal SDC ratio with CI.
func (a *Assessment) SDCRatio() (ratio, lo, hi float64) {
	return beam.Pair{Fast: a.FastAvg, Thermal: a.ThermalAvg}.SDCRatio()
}

// DUERatio returns the device-average fast:thermal DUE ratio with CI.
func (a *Assessment) DUERatio() (ratio, lo, hi float64) {
	return beam.Pair{Fast: a.FastAvg, Thermal: a.ThermalAvg}.DUERatio()
}

// FIT computes the device's failure rates in an environment.
func (a *Assessment) FIT(env fit.Environment) (fit.Report, error) {
	return fit.Compute(a.Sigmas, env)
}

// RatioRow is one line of the cross-section-ratio table (Fig. cs_ratio).
type RatioRow struct {
	Device                 string
	SDCRatio, SDCLo, SDCHi float64
	DUERatio, DUELo, DUEHi float64
}

// RatioTable builds the Fig. cs_ratio table from assessments, sorted by
// descending SDC ratio (least thermally sensitive first).
func RatioTable(as []*Assessment) []RatioRow {
	rows := make([]RatioRow, 0, len(as))
	for _, a := range as {
		var r RatioRow
		r.Device = a.Device.Name
		r.SDCRatio, r.SDCLo, r.SDCHi = a.SDCRatio()
		r.DUERatio, r.DUELo, r.DUEHi = a.DUERatio()
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SDCRatio > rows[j].SDCRatio })
	return rows
}

// ShareRow is one line of the thermal-FIT-share table (the commented
// FIT-rates-all-devices figure).
type ShareRow struct {
	Device          string
	Environment     string
	SDCThermalShare float64
	DUEThermalShare float64
	TotalFIT        units.FIT
}

// ShareTable evaluates every assessment in every environment.
func ShareTable(as []*Assessment, envs []fit.Environment) ([]ShareRow, error) {
	var rows []ShareRow
	for _, a := range as {
		for _, env := range envs {
			rep, err := a.FIT(env)
			if err != nil {
				return nil, fmt.Errorf("core: %s in %s: %w", a.Device.Name, env, err)
			}
			rows = append(rows, ShareRow{
				Device:          a.Device.Name,
				Environment:     env.String(),
				SDCThermalShare: rep.SDC.ThermalShare(),
				DUEThermalShare: rep.DUE.ThermalShare(),
				TotalFIT:        rep.Total(),
			})
		}
	}
	return rows, nil
}
