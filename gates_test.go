package neutronsim

import (
	"context"
	"io"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"neutronsim/internal/beam"
	"neutronsim/internal/cluster"
	"neutronsim/internal/device"
	"neutronsim/internal/plan"
	"neutronsim/internal/rng"
	"neutronsim/internal/server"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/surrogate"
	"neutronsim/internal/telemetry"
)

var gates = []struct {
	name    string
	unit    string
	floor   float64
	measure func(b *testing.B) float64
}{
	{"plan", "cold/warm", 10, gatePlanWarmHit},
	{"vr", "exact/biased-neutrons", 20, gateVRReduction},
	{"surrogate", "exact/predict", 1000, gateSurrogateSpeedup},
	{"cluster", "fleet/single-rps", 2, gateClusterSaturation},
	{"engine", "serial/4-procs", 2.5, gateEngineScaling},
}

// BenchmarkGates is the table of design floors, run by `make bench-gates`.
// Each row measures one value, reports it with b.ReportMetric and fails
// below its floor; a row also fails outright when a precondition no floor
// could forgive breaks (a result that is not bit-identical, a storm with
// errors). Speed over time is cmd/neutronbench's job, not this table's.
func BenchmarkGates(b *testing.B) {
	// The surrogate and cluster rows push hundreds of jobs through
	// in-process servers; their per-job log lines would drown the output.
	telemetry.ConfigureLogger("gates", false, io.Discard)
	for _, g := range gates {
		b.Run(g.name, func(b *testing.B) {
			v := g.measure(b)
			b.ReportMetric(v, g.unit)
			if v < g.floor {
				b.Fatalf("%s = %.3g, below the floor of %.3g", g.unit, v, g.floor)
			}
		})
	}
}

// gateSink keeps timed results live so the compiler cannot drop the call.
var gateSink float64

// nsPerOp times op in doubling batches until one batch fills 200 ms. The
// table runs each row once (-benchtime 1x), and testing.Benchmark would
// follow that setting, so fast ops are timed here.
func nsPerOp(op func()) float64 {
	for n := 1; ; n *= 2 {
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		if el := time.Since(start); el >= 200*time.Millisecond {
			return float64(el.Nanoseconds()) / float64(n)
		}
	}
}

// gatePlanWarmHit: a plan-cache hit at the production calibration budget
// must compile nothing and beat a cold compile.
func gatePlanWarmHit(b *testing.B) float64 {
	const samples = 20000
	d, sp := device.K20(), spectrum.ChipIR()
	cold := nsPerOp(func() { plan.Compile(d, sp, samples, plan.CalibrationStream(1)) })
	c := plan.NewCache(4, telemetry.NewRegistry())
	c.For(d, sp, samples, 1)
	compiles := c.Stats().Misses
	warm := nsPerOp(func() { c.For(d, sp, samples, 1) })
	if n := c.Stats().Misses - compiles; n != 0 {
		b.Fatalf("warm loop compiled %d plans, want 0", n)
	}
	return cold / warm
}

// gateVRReduction: the zero-bias campaign must reproduce the exact one
// bit for bit, and the thermal bias must reach the exact thermal-DUE CI
// width from the floor's factor fewer neutrons.
func gateVRReduction(b *testing.B) float64 {
	rep, err := compareVR(24000)
	if err != nil {
		b.Fatal(err)
	}
	if !rep.IdentityBitExact {
		b.Fatal("zero-bias campaign is not bit-identical to the exact campaign")
	}
	return rep.NeutronBudgetReduction
}

// gateSurrogateSpeedup: the stock model's held-out error must stay within
// its certified bound, a tier storm through a surrogate-enabled server
// must see no errors, and a prediction must beat warm exact Monte Carlo
// at the production 60k-sample budget.
func gateSurrogateSpeedup(b *testing.B) float64 {
	ds, err := surrogate.EvaluateGrid(surrogate.DefaultGrid())
	if err != nil {
		b.Fatal(err)
	}
	m, err := surrogate.Train(ds, surrogate.TrainConfig{})
	if err != nil {
		b.Fatal(err)
	}
	if m.HeldOutMaxRelErr > m.CertifiedRelErr {
		b.Fatalf("held-out error %.4f escaped the certified bound %.4f", m.HeldOutMaxRelErr, m.CertifiedRelErr)
	}
	rotax := spectrum.ROTAX()
	f := surrogate.FeatureVector(1e14, 3, rotax, plan.Bias{})
	if !m.Hull.Contains(f) {
		b.Fatal("the timed design point is outside the model's hull")
	}
	predict := nsPerOp(func() {
		if m.Hull.Contains(f) {
			gateSink += m.PredictSigma(f)
		}
	})
	d, s := surrogate.DesignDevice(1e14, 3), rng.New(1)
	exact := nsPerOp(func() { _, err = d.UpsetCrossSection(context.Background(), rotax.Sample, 60000, s) })
	if err != nil {
		b.Fatal(err)
	}

	srv := server.New(server.Config{Workers: 4, Registry: telemetry.NewRegistry(), Surrogate: m})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	storm := cluster.Storm(context.Background(), ts.URL, 4, 1500*time.Millisecond, 40, 3, cluster.XsectionCampaign(0.1))
	if storm.Errors != 0 {
		b.Fatalf("tier storm saw %d errors, want 0", storm.Errors)
	}
	return exact / predict
}

// gateClusterSaturation: coordinator execution must DeepEqual the direct
// library result, storms must see no errors, and a 3-worker fleet must
// saturate above a single node by the floor.
func gateClusterSaturation(b *testing.B) float64 {
	rep, err := cluster.CompareBench(context.Background(), 3*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	if !rep.IdentityBitExact {
		b.Fatal("distributed results are not bit-identical to local execution")
	}
	if rep.SingleNode.Errors > 0 || rep.Cluster.Errors > 0 {
		b.Fatalf("storm errors: single node %d, cluster %d", rep.SingleNode.Errors, rep.Cluster.Errors)
	}
	return rep.SaturationSpeedup
}

// gateEngineScaling: a 2000-run campaign (~32 shards) on 4 workers at
// GOMAXPROCS 4 must beat the serial campaign at GOMAXPROCS 1.
func gateEngineScaling(b *testing.B) float64 {
	const procs = 4
	if n := runtime.NumCPU(); n < procs {
		b.Skipf("NumCPU is %d: the %d-core point needs %d CPUs", n, procs, procs)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	d := device.K20()
	d.SensitiveFraction = 0.2
	campaign := func(workers int) float64 {
		runtime.GOMAXPROCS(workers)
		cfg := beam.Config{
			Device: d, WorkloadName: "MxM", Beam: spectrum.ChipIR(),
			DurationSeconds: 2000, RunSeconds: 1, Seed: 7, CalSamples: 2000,
			Shards: workers, ShardGrain: 64,
		}
		var err error
		ns := nsPerOp(func() { _, err = beam.RunContext(context.Background(), cfg) })
		if err != nil {
			b.Fatal(err)
		}
		return ns
	}
	return campaign(1) / campaign(procs)
}
