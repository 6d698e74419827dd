// Conformance: a campaign that compiles its plan through the shared cache
// must be bit-identical to one that compiled from scratch, for every
// catalog device on both beamlines, at every shard count, and the spectrum
// singletons must not perturb the transport simulator's determinism. The
// tests live in an external package because they drive internal/beam,
// which itself imports internal/plan.
package plan_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"neutronsim/internal/beam"
	"neutronsim/internal/device"
	"neutronsim/internal/materials"
	"neutronsim/internal/plan"
	"neutronsim/internal/rng"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/transport"
	"neutronsim/internal/units"
	"neutronsim/internal/workload"
)

// conformanceConfig builds a quick campaign for one device×spectrum cell.
// The calibration budget is non-default and set per cell, so each cell's
// plan has its own cache key and the first run of a cell is a genuine cold
// compile within the test process.
func conformanceConfig(d *device.Device, sp spectrum.Spectrum, seed uint64, calSamples int) beam.Config {
	return beam.Config{
		Device:          d,
		WorkloadName:    workload.ForDeviceKind(d.Kind.String())[0],
		Beam:            sp,
		DurationSeconds: 1,
		Seed:            seed,
		CalSamples:      calSamples,
	}
}

// TestConformanceCachedRunsBitIdentical runs every catalog device on both
// beamlines twice — the repeat is served by the plan cache — and requires
// the full campaign results to be deeply equal. It also pins the plan
// itself: the shared-cache plan must checksum-match a from-scratch compile
// fed the spectrum's stratified point set, which is the memoization
// identity the cache's correctness rests on.
func TestConformanceCachedRunsBitIdentical(t *testing.T) {
	spectra := []spectrum.Spectrum{spectrum.ChipIR(), spectrum.ROTAX()}
	for di, d := range device.All() {
		for si, sp := range spectra {
			d, sp := d, sp
			cell := di*2 + si
			seed := 0xC0FFEE00 + uint64(cell)
			t.Run(d.Name+"/"+sp.Name(), func(t *testing.T) {
				t.Parallel()
				cfg := conformanceConfig(d, sp, seed, 4000+cell)
				first, err := beam.RunContext(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				second, err := beam.RunContext(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(first, second) {
					t.Errorf("cached repeat diverged from the first run:\nfirst:  %+v\nsecond: %+v", first, second)
				}
				cached := plan.Shared.For(cfg.Device, cfg.Beam, cfg.CalSamples, cfg.Seed)
				direct := plan.CompileStratified(cfg.Device, cfg.Beam, cfg.CalSamples, nil)
				if cached.Checksum() != direct.Checksum() {
					t.Error("shared-cache plan differs from a from-scratch stratified compile")
				}
			})
		}
	}
}

// TestConformanceFreshSeedsShareOnePlan pins what keying a plan by its
// physics buys: campaigns on fresh seeds compile each physics
// configuration once. Each of the four configurations the beam-campaigns
// traffic uses (K20 on both beamlines, exact and Bias{Thermal: 10}) may
// miss on its first seed, and compiles on none of the later ones. The
// first seed may also hit, when an earlier -count repetition warmed the
// process-wide cache.
func TestConformanceFreshSeedsShareOnePlan(t *testing.T) {
	const seeds = 5
	type physicsConfig struct {
		sp   spectrum.Spectrum
		bias *plan.Bias
	}
	configs := []physicsConfig{
		{spectrum.ChipIR(), nil}, {spectrum.ChipIR(), &plan.Bias{Thermal: 10}},
		{spectrum.ROTAX(), nil}, {spectrum.ROTAX(), &plan.Bias{Thermal: 10}},
	}
	run := func(seed uint64) {
		for _, pc := range configs {
			cfg := conformanceConfig(device.K20(), pc.sp, seed, 4100)
			cfg.Bias = pc.bias
			if _, err := beam.RunContext(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := plan.Shared.Stats()
	run(0xF5EED000)
	warm := plan.Shared.Stats()
	if misses := warm.Misses - before.Misses; misses > int64(len(configs)) {
		t.Fatalf("first seed compiled %d plans for %d physics configurations", misses, len(configs))
	}
	for seed := uint64(1); seed < seeds; seed++ {
		run(0xF5EED000 + seed)
	}
	after := plan.Shared.Stats()
	if after.Misses != warm.Misses {
		t.Errorf("%d fresh seeds compiled %d more plans, want 0", seeds-1, after.Misses-warm.Misses)
	}
	if hits, want := after.Hits-warm.Hits, int64((seeds-1)*len(configs)); hits != want {
		t.Errorf("%d fresh seeds hit the cache %d times, want %d", seeds-1, hits, want)
	}
}

// TestConformanceShardCountsShareOnePlan reruns one campaign at several
// worker counts. All of them hit the same cached plan, and per the
// engine's contract the shard count must never affect results.
func TestConformanceShardCountsShareOnePlan(t *testing.T) {
	cfg := conformanceConfig(device.TitanX(), spectrum.ChipIR(), 0xC0FFEE77, 4000)
	ref, err := beam.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 7, runtime.GOMAXPROCS(0)} {
		c := cfg
		c.Shards = shards
		got, err := beam.RunContext(context.Background(), c)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("shards=%d diverged from the reference run", shards)
		}
	}
}

// TestConformanceTransportRepeatable guards the spectrum singletons: the
// transport simulator samples its source from the now-shared ChipIR/ROTAX
// instances, and repeated simulations with the same seed must stay deeply
// equal.
func TestConformanceTransportRepeatable(t *testing.T) {
	slabs := []transport.Slab{
		{Material: materials.Concrete(), Thickness: 10},
		{Material: materials.Water(), Thickness: 2},
	}
	for _, sp := range []spectrum.Spectrum{spectrum.ChipIR(), spectrum.ROTAX()} {
		source := func(s *rng.Stream) units.Energy { return sp.Sample(s) }
		first, err := transport.SimulateContext(context.Background(), slabs, 2000, source, rng.New(29), transport.Options{})
		if err != nil {
			t.Fatal(err)
		}
		second, err := transport.SimulateContext(context.Background(), slabs, 2000, source, rng.New(29), transport.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("%s: transport repeat diverged", sp.Name())
		}
	}
}
