// Conformance suite for the sharded execution engine: every simulator that
// runs on engine.Map must produce bit-identical results for any worker
// count, including 1. The suite sweeps worker counts {1, 2, 7, GOMAXPROCS}
// over every catalog device model and both beam spectra (ChipIR fast,
// ROTAX thermal) and compares full result structs with reflect.DeepEqual.
package engine_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"neutronsim/internal/beam"
	"neutronsim/internal/device"
	"neutronsim/internal/materials"
	"neutronsim/internal/memsim"
	"neutronsim/internal/plan"
	"neutronsim/internal/rng"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/telemetry"
	"neutronsim/internal/transport"
	"neutronsim/internal/units"
	"neutronsim/internal/workload"
)

// workerCounts is the deduplicated conformance sweep {1, 2, 7, GOMAXPROCS}.
func workerCounts() []int {
	counts := []int{1, 2, 7}
	maxprocs := runtime.GOMAXPROCS(0)
	for _, c := range counts {
		if c == maxprocs {
			return counts
		}
	}
	return append(counts, maxprocs)
}

func TestBeamCampaignShardCountInvariance(t *testing.T) {
	devices := device.All()
	if testing.Short() {
		devices = devices[:2]
	}
	for _, d := range devices {
		for _, spec := range []spectrum.Spectrum{spectrum.ChipIR(), spectrum.ROTAX()} {
			d, spec := d, spec
			t.Run(fmt.Sprintf("%s/%s", d.Name, spec.Name()), func(t *testing.T) {
				t.Parallel()
				run := func(workers int) *beam.Result {
					dut := *d
					// Boost sensitivity so the small run budget still
					// produces events in every tally bucket.
					dut.SensitiveFraction = 0.2
					res, err := beam.RunContext(context.Background(), beam.Config{
						Device:          &dut,
						WorkloadName:    workload.ForDeviceKind(d.Kind.String())[0],
						Beam:            spec,
						DurationSeconds: 600,
						RunSeconds:      1, // 600 runs, grain 64 → 10 shards
						Seed:            99,
						CalSamples:      2000,
						Shards:          workers,
						ShardGrain:      64,
					})
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					return res
				}
				ref := run(1)
				if ref.SDC+ref.DUE+ref.Masked == 0 {
					t.Fatal("conformance campaign produced no events; comparison is vacuous")
				}
				for _, workers := range workerCounts()[1:] {
					if got := run(workers); !reflect.DeepEqual(got, ref) {
						t.Errorf("workers=%d diverged from serial:\n got %+v\nwant %+v", workers, got, ref)
					}
				}
			})
		}
	}
}

// TestBiasedCampaignShardCountInvariance extends the engine invariant to
// importance-sampled campaigns: weighted tallies are merged in shard
// order, so a biased campaign must be bit-identical for any worker count,
// and the identity knob Bias{} must reproduce the exact campaign's result
// (minus the Weighted section it adds) through the weighted code path.
func TestBiasedCampaignShardCountInvariance(t *testing.T) {
	devices := []*device.Device{device.K20(), device.FPGA()}
	for _, d := range devices {
		for _, spec := range []spectrum.Spectrum{spectrum.ChipIR(), spectrum.ROTAX()} {
			for _, bias := range []plan.Bias{{}, {Thermal: 8}} {
				d, spec, bias := d, spec, bias
				t.Run(fmt.Sprintf("%s/%s/thermal=%v", d.Name, spec.Name(), bias.Thermal), func(t *testing.T) {
					t.Parallel()
					run := func(workers int, b *plan.Bias) *beam.Result {
						dut := *d
						dut.SensitiveFraction = 0.2
						res, err := beam.RunContext(context.Background(), beam.Config{
							Device:          &dut,
							WorkloadName:    workload.ForDeviceKind(d.Kind.String())[0],
							Beam:            spec,
							DurationSeconds: 600,
							RunSeconds:      1,
							Seed:            99,
							CalSamples:      2000,
							Shards:          workers,
							ShardGrain:      64,
							Bias:            b,
						})
						if err != nil {
							t.Fatalf("workers=%d: %v", workers, err)
						}
						return res
					}
					ref := run(1, &bias)
					if ref.Weighted == nil || ref.Weighted.Draws.N == 0 {
						t.Fatal("biased conformance campaign recorded no weighted draws; comparison is vacuous")
					}
					for _, workers := range workerCounts()[1:] {
						if got := run(workers, &bias); !reflect.DeepEqual(got, ref) {
							t.Errorf("workers=%d diverged from serial:\n got %+v\nwant %+v", workers, got, ref)
						}
					}
					if bias.IsIdentity() {
						exact := run(1, nil)
						stripped := *ref
						stripped.Weighted = nil
						if !reflect.DeepEqual(&stripped, exact) {
							t.Errorf("identity bias diverged from the exact campaign:\n got %+v\nwant %+v", &stripped, exact)
						}
					}
				})
			}
		}
	}
}

// unkeyedSpectrum hides the concrete spectrum's Fingerprint method, so
// every campaign compiles its plan instead of hitting the shared cache —
// which makes the calibration-draw telemetry deterministic per run.
type unkeyedSpectrum struct{ spectrum.Spectrum }

// TestBeamTelemetryCountersShardCountInvariant pins the telemetry side of
// the conformance contract: the beam.neutrons_sampled (calibration draws)
// and beam.neutrons_weighted (weighted interaction draws) counters must
// grow by exactly the same amount whatever the worker count. It must not
// run in parallel — the counters are process-global.
func TestBeamTelemetryCountersShardCountInvariant(t *testing.T) {
	reg := telemetry.Default
	sampled := reg.Counter("beam.neutrons_sampled")
	weighted := reg.Counter("beam.neutrons_weighted")
	run := func(workers int) (int64, int64) {
		d := device.K20()
		d.SensitiveFraction = 0.2
		s0, w0 := sampled.Value(), weighted.Value()
		_, err := beam.RunContext(context.Background(), beam.Config{
			Device:          d,
			WorkloadName:    workload.ForDeviceKind(d.Kind.String())[0],
			Beam:            unkeyedSpectrum{spectrum.ChipIR()},
			DurationSeconds: 600,
			RunSeconds:      1,
			Seed:            12,
			CalSamples:      2000,
			Shards:          workers,
			ShardGrain:      64,
			Bias:            &plan.Bias{Thermal: 8},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return sampled.Value() - s0, weighted.Value() - w0
	}
	refSampled, refWeighted := run(1)
	if refSampled == 0 || refWeighted == 0 {
		t.Fatalf("telemetry campaign recorded no draws (sampled=%d weighted=%d)", refSampled, refWeighted)
	}
	for _, workers := range workerCounts()[1:] {
		gotSampled, gotWeighted := run(workers)
		if gotSampled != refSampled || gotWeighted != refWeighted {
			t.Errorf("workers=%d: counter deltas (sampled=%d, weighted=%d) != serial (%d, %d)",
				workers, gotSampled, gotWeighted, refSampled, refWeighted)
		}
	}
}

func TestTransportShardCountInvariance(t *testing.T) {
	slabs := []transport.Slab{
		{Material: materials.Air(), Thickness: 30},
		{Material: materials.Water(), Thickness: 5.08},
		{Material: materials.Air(), Thickness: 30},
	}
	fastSource := func(s *rng.Stream) units.Energy {
		return units.Energy(s.WattEnergy(0.988, 2.249) * 1e6)
	}
	const n = 20000
	run := func(workers int) *transport.Tally {
		// Streams are consumed by the walk, so every invocation needs a
		// fresh root stream for the comparison to be meaningful.
		tally, err := transport.SimulateContext(context.Background(), slabs, n, fastSource, rng.New(17),
			transport.Options{Shards: workers, ShardGrain: 2048})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return tally
	}
	ref := run(1)
	if ref.Absorbed == 0 || ref.TransmittedTotal() == 0 {
		t.Fatal("transport conformance tally is degenerate")
	}
	for _, workers := range workerCounts()[1:] {
		if got := run(workers); !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d diverged from serial:\n got %+v\nwant %+v", workers, got, ref)
		}
	}
}

func TestMemsimShardCountInvariance(t *testing.T) {
	cases := []struct {
		name string
		cfg  memsim.Config
	}{
		{"ddr3-thermal", memsim.Config{
			Spec: memsim.DDR3Module(), Band: memsim.ThermalBeam,
			Flux: spectrum.ROTAXTotalFlux,
		}},
		{"ddr4-thermal", memsim.Config{
			Spec: memsim.DDR4Module(), Band: memsim.ThermalBeam,
			Flux: spectrum.ROTAXTotalFlux,
		}},
		{"ddr3-fast-abort", memsim.Config{
			Spec: memsim.DDR3Module(), Band: memsim.FastBeam,
			Flux: spectrum.ChipIR().TotalFlux(), PermanentAbortLimit: 5,
		}},
		{"ddr4-fast-ecc", memsim.Config{
			Spec: memsim.DDR4Module(), Band: memsim.FastBeam,
			Flux: spectrum.ChipIR().TotalFlux(), ECC: true,
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			run := func(workers int) *memsim.Result {
				cfg := tc.cfg
				cfg.DurationSeconds = 600 // 600 passes, grain 64 → 10 shards
				cfg.Seed = 5
				cfg.Shards = workers
				cfg.ShardGrain = 64
				res, err := memsim.RunContext(context.Background(), cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return res
			}
			ref := run(1)
			if ref.Events == 0 {
				t.Fatal("memsim conformance campaign produced no events")
			}
			for _, workers := range workerCounts()[1:] {
				if got := run(workers); !reflect.DeepEqual(got, ref) {
					t.Errorf("workers=%d diverged from serial:\n got %+v\nwant %+v", workers, got, ref)
				}
			}
		})
	}
}
