// Surrogate serving benchmarks and the tier storm. This file lives in the
// external test package so it can drive the full serving pyramid — server
// and cluster import surrogate, so the storm harness cannot live in
// package surrogate itself. The surrogate row of the root BenchmarkGates
// table holds the certified bound, the 1000× floor and the clean storm.
package surrogate_test

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"neutronsim/internal/cluster"
	"neutronsim/internal/plan"
	"neutronsim/internal/rng"
	"neutronsim/internal/server"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/surrogate"
	"neutronsim/internal/telemetry"
)

// benchExactSamples is the exact estimator's production default Monte
// Carlo budget (server xsection default and cmd/sweep -samples), so the
// speedup compares the surrogate against what an interactive exact
// query actually costs.
const benchExactSamples = 60000

var (
	benchOnce  sync.Once
	benchModel *surrogate.Model
	benchErr   error
)

// defaultModel trains the stock DefaultGrid model once per process —
// the same model the gate table retrains and the quickstart ships.
func defaultModel() (*surrogate.Model, error) {
	benchOnce.Do(func() {
		var ds *surrogate.Dataset
		ds, benchErr = surrogate.EvaluateGrid(surrogate.DefaultGrid())
		if benchErr != nil {
			return
		}
		benchModel, benchErr = surrogate.Train(ds, surrogate.TrainConfig{})
	})
	return benchModel, benchErr
}

// BenchmarkSurrogatePredict is the approximate serving path: one hull
// check plus one polynomial evaluation per query.
func BenchmarkSurrogatePredict(b *testing.B) {
	m, err := defaultModel()
	if err != nil {
		b.Fatal(err)
	}
	f := surrogate.FeatureVector(1e14, 3, spectrum.ROTAX(), plan.Bias{})
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		if !m.Hull.Contains(f) {
			b.Fatal("bench point left the hull")
		}
		sink = m.PredictSigma(f)
	}
	_ = sink
}

// BenchmarkSurrogateExactXsection is the tier the surrogate displaces:
// the exact Monte Carlo cross-section estimator at the production
// sample budget, with the process warm (spectra compiled, no cold
// setup in the loop).
func BenchmarkSurrogateExactXsection(b *testing.B) {
	sp := spectrum.ROTAX()
	d := surrogate.DesignDevice(1e14, 3)
	s := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.UpsetCrossSection(sp.Sample, benchExactSamples, s); err != nil {
			b.Fatal(err)
		}
	}
}

// runTierStorm drives a mixed-tolerance xsection storm through a
// surrogate-enabled server: every third key demands an exact answer
// (cacheable), the rest are surrogate-servable. The report's tier
// breakdown is the serving pyramid under load.
func runTierStorm(m *surrogate.Model) (*cluster.Report, error) {
	srv := server.New(server.Config{
		Workers:   4,
		Registry:  telemetry.NewRegistry(),
		Surrogate: m,
	})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	return cluster.RunLoad(context.Background(), cluster.LoadConfig{
		Target:      ts.URL,
		Concurrency: 4,
		Duration:    1500 * time.Millisecond,
		Keys:        40,
		Seed:        3,
		Campaign:    cluster.XsectionCampaign(0.1),
		Client:      ts.Client(),
	})
}

// TestSurrogateTierStorm is the -race-friendly storm check CI runs even
// without benchmarks: all three tiers answer, nothing errors.
func TestSurrogateTierStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("storm skipped in -short mode")
	}
	m, err := defaultModel()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runTierStorm(m)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("storm errors = %d, want 0", rep.Errors)
	}
	if rep.Tiers[cluster.TierSurrogate].Requests == 0 {
		t.Fatalf("no surrogate-tier answers in storm: %+v", rep.Tiers)
	}
	if rep.Tiers[cluster.TierExact].Requests == 0 {
		t.Fatalf("no exact-tier answers in storm: %+v", rep.Tiers)
	}
}
