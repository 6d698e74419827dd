package server

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"neutronsim/internal/plan"
	"neutronsim/internal/rng"
	"neutronsim/internal/surrogate"
	"neutronsim/internal/telemetry"
)

var (
	srvModelOnce sync.Once
	srvModel     *surrogate.Model
	srvModelErr  error
)

// testModel trains one small real model for the server-level tests.
func testModel(t *testing.T) *surrogate.Model {
	t.Helper()
	srvModelOnce.Do(func() {
		ds, err := surrogate.EvaluateGrid(surrogate.GridConfig{
			BoronMin: 1e12, BoronMax: 1e15, BoronSteps: 8,
			QcritMin: 1, QcritMax: 8, QcritSteps: 6,
			Samples: 20000,
			Seed:    7,
		})
		if err != nil {
			srvModelErr = err
			return
		}
		srvModel, srvModelErr = surrogate.Train(ds, surrogate.TrainConfig{})
	})
	if srvModelErr != nil {
		t.Fatalf("testModel: %v", srvModelErr)
	}
	return srvModel
}

func newSurrogateServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Config{Workers: 2, Registry: telemetry.NewRegistry(), Surrogate: testModel(t)})
	t.Cleanup(func() { srv.Drain() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func xsectionRequest(boron, qcrit float64, spec string, samples int, tol float64) *CampaignRequest {
	return &CampaignRequest{
		Kind:      KindXsection,
		Seed:      42,
		Tolerance: tol,
		Xsection:  &XsectionParams{BoronPerCm2: boron, QcritFC: qcrit, Spectrum: spec, Samples: samples},
	}
}

func decodeEnvelope(t *testing.T, body []byte) *ResultEnvelope {
	t.Helper()
	var env ResultEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("decode envelope: %v: %s", err, body)
	}
	return &env
}

// directXsection runs the library path an xsection campaign must match
// bit-for-bit.
func directXsection(t *testing.T, req *CampaignRequest) float64 {
	t.Helper()
	p := req.Xsection
	sp, err := SpectrumByName(p.Spectrum)
	if err != nil {
		t.Fatal(err)
	}
	d := surrogate.DesignDevice(p.BoronPerCm2, p.QcritFC)
	s := rng.New(req.Seed)
	if p.Bias == nil {
		sigma, err := d.UpsetCrossSection(context.Background(), sp.Sample, p.Samples, s)
		if err != nil {
			t.Fatal(err)
		}
		return float64(sigma)
	}
	cp, err := plan.CompileBiased(d, sp, p.Samples, s, *p.Bias)
	if err != nil {
		t.Fatal(err)
	}
	sigma, _, err := cp.UpsetCrossSectionWeighted(d, p.Samples, s)
	if err != nil {
		t.Fatal(err)
	}
	return float64(sigma)
}

// runExactJob submits a request expected to miss both the cache and the
// surrogate tier, awaits the job, and returns the result envelope.
func runExactJob(t *testing.T, ts *httptest.Server, req *CampaignRequest) *ResultEnvelope {
	t.Helper()
	resp, body := postCampaign(t, ts, req, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("expected 202 exact-path submit, got %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("exact-path submit X-Cache = %q, want miss", got)
	}
	var info JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	info = awaitJob(t, ts, info.ID, time.Minute)
	if info.State != StateDone {
		t.Fatalf("job state %s: %s", info.State, info.Error)
	}
	return decodeEnvelope(t, info.Result)
}

// TestXsectionExactBitIdentical is the fallback-equivalence gate: an
// xsection request that bypasses the surrogate (tolerance zero) must
// return the exact library result bit-for-bit, with the surrogate tier
// loaded and irrelevant.
func TestXsectionExactBitIdentical(t *testing.T) {
	_, ts := newSurrogateServer(t)
	req := xsectionRequest(1e14, 3, "ROTAX", 3000, 0)
	env := runExactJob(t, ts, req)
	if env.Kind != KindXsection || env.Xsection == nil {
		t.Fatalf("bad envelope: %+v", env)
	}
	if env.Xsection.Approx {
		t.Fatal("zero-tolerance request served approximately")
	}
	want := directXsection(t, req)
	if math.Float64bits(env.Xsection.SigmaCm2) != math.Float64bits(want) {
		t.Fatalf("exact path sigma %v != direct library %v (bit mismatch)", env.Xsection.SigmaCm2, want)
	}
	if env.Xsection.Samples != 3000 || env.Xsection.ModelHash != "" {
		t.Fatalf("exact result carries surrogate fields: %+v", env.Xsection)
	}
}

// TestXsectionBiasedExactBitIdentical covers the weighted estimator
// path: a biased query is never surrogate-served (the bias features
// fall outside the hull) and matches the direct weighted library run.
func TestXsectionBiasedExactBitIdentical(t *testing.T) {
	_, ts := newSurrogateServer(t)
	req := xsectionRequest(1e14, 3, "ROTAX", 3000, 0.5)
	req.Xsection.Bias = &plan.Bias{Thermal: 4}
	env := runExactJob(t, ts, req)
	if env.Xsection == nil || env.Xsection.Approx {
		t.Fatalf("biased request not answered exactly: %+v", env.Xsection)
	}
	want := directXsection(t, req)
	if math.Float64bits(env.Xsection.SigmaCm2) != math.Float64bits(want) {
		t.Fatalf("biased path sigma %v != direct library %v (bit mismatch)", env.Xsection.SigmaCm2, want)
	}
}

func TestXsectionSurrogateServe(t *testing.T) {
	m := testModel(t)
	_, ts := newSurrogateServer(t)
	req := xsectionRequest(1e14, 3, "ROTAX", 3000, 0.5)

	for round := 0; round < 2; round++ {
		resp, body := postCampaign(t, ts, req, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, resp.StatusCode, body)
		}
		// Both rounds must be surrogate-served: approximate answers never
		// populate the exact result cache.
		if got := resp.Header.Get("X-Cache"); got != "surrogate" {
			t.Fatalf("round %d: X-Cache = %q, want surrogate", round, got)
		}
		env := decodeEnvelope(t, body)
		x := env.Xsection
		if env.Kind != KindXsection || x == nil || !x.Approx {
			t.Fatalf("round %d: not an approximate xsection result: %s", round, body)
		}
		if x.ModelHash != m.Hash {
			t.Errorf("model hash %q, want %q", x.ModelHash, m.Hash)
		}
		if x.RelErrBound != m.CertifiedRelErr {
			t.Errorf("rel err bound %v, want %v", x.RelErrBound, m.CertifiedRelErr)
		}
		if c := x.Confidence; !(c > 0 && c < 1) {
			t.Errorf("confidence %v outside (0,1)", c)
		}
		if !(x.SigmaCm2 > 0) || math.IsInf(x.SigmaCm2, 0) {
			t.Errorf("surrogate sigma %v is not finite positive", x.SigmaCm2)
		}
		// Within 2× the certified bound of a well-resolved exact answer —
		// the factor of two absorbs the reference run's own Monte Carlo
		// noise, which the certified bound does not cover.
		ref := xsectionRequest(1e14, 3, "ROTAX", 20000, 0)
		want := directXsection(t, ref)
		if rel := math.Abs(x.SigmaCm2/want - 1); rel > 2*m.CertifiedRelErr {
			t.Errorf("surrogate sigma %v vs exact %v: rel err %v exceeds 2x certified %v",
				x.SigmaCm2, want, rel, m.CertifiedRelErr)
		}
	}
}

// TestXsectionSurrogateFallbacks drives each gate of the tier and
// checks both the serving behavior (202, exact path) and the stats
// counters that account for it.
func TestXsectionSurrogateFallbacks(t *testing.T) {
	m := testModel(t)
	_, ts := newSurrogateServer(t)

	fetchStats := func() SurrogateStats {
		resp, err := ts.Client().Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st StatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.Surrogate
	}

	expect202 := func(req *CampaignRequest, label string) {
		t.Helper()
		resp, body := postCampaign(t, ts, req, nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: status %d, want 202 exact fallback: %s", label, resp.StatusCode, body)
		}
		var info JobInfo
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		awaitJob(t, ts, info.ID, time.Minute)
	}

	// Zero boron: log10 feature is -Inf → rejected.
	expect202(xsectionRequest(0, 3, "ROTAX", 1000, 0.5), "zero boron")
	// Finite but far outside the trained hull → fallback_hull.
	expect202(xsectionRequest(1e20, 3, "ROTAX", 1000, 0.5), "out-of-hull boron")
	// Biased estimator → bias features outside hull → fallback_hull.
	biased := xsectionRequest(1e14, 3, "ROTAX", 1000, 0.5)
	biased.Xsection.Bias = &plan.Bias{Fast: 2}
	expect202(biased, "biased query")
	// Tolerance tighter than the certified bound → fallback_tolerance.
	tight := xsectionRequest(1e14, 3, "ROTAX", 1000, m.CertifiedRelErr/2)
	expect202(tight, "tight tolerance")

	st := fetchStats()
	if !st.Loaded || st.ModelHash != m.Hash {
		t.Fatalf("stats surrogate section = %+v, want loaded with hash %s", st, m.Hash)
	}
	if st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}
	if st.FallbackHull != 2 {
		t.Errorf("fallback_hull = %d, want 2", st.FallbackHull)
	}
	if st.FallbackTolerance != 1 {
		t.Errorf("fallback_tolerance = %d, want 1", st.FallbackTolerance)
	}
	if st.Served != 0 {
		t.Errorf("served = %d, want 0", st.Served)
	}

	// Now one servable query, and the stats reflect it. A different
	// design point than the tight-tolerance request above, which ran
	// exactly and populated the result cache — the cache is consulted
	// before the surrogate, and an exact cached answer wins.
	resp, body := postCampaign(t, ts, xsectionRequest(1e14, 2.5, "ROTAX", 1000, 0.5), nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "surrogate" {
		t.Fatalf("servable query: status %d X-Cache %q: %s", resp.StatusCode, resp.Header.Get("X-Cache"), body)
	}
	if st := fetchStats(); st.Served != 1 {
		t.Errorf("served = %d after a surrogate answer, want 1", st.Served)
	}
}

// TestStatsSurrogateSchema pins the GET /v1/stats surrogate section:
// loaded with model identity when a model is configured, and an
// explicit loaded:false shell otherwise.
func TestStatsSurrogateSchema(t *testing.T) {
	m := testModel(t)
	_, ts := newSurrogateServer(t)
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	sec, ok := raw["surrogate"]
	if !ok {
		t.Fatal("stats body has no surrogate section")
	}
	var st SurrogateStats
	if err := json.Unmarshal(sec, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Loaded || st.ModelHash != m.Hash || st.CertifiedRelErr != m.CertifiedRelErr {
		t.Fatalf("surrogate stats = %+v, want model identity for %s", st, m.Hash)
	}
	if len(st.FeatureNames) != surrogate.NumFeatures ||
		len(st.HullMin) != surrogate.NumFeatures || len(st.HullMax) != surrogate.NumFeatures {
		t.Fatalf("surrogate stats hull/feature arity: %+v", st)
	}

	// No model configured: the section is present but unloaded.
	bare := New(Config{Workers: 1, Registry: telemetry.NewRegistry()})
	defer bare.Drain()
	bts := httptest.NewServer(bare.Handler())
	defer bts.Close()
	bresp, err := bts.Client().Get(bts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	var bst StatsResponse
	if err := json.NewDecoder(bresp.Body).Decode(&bst); err != nil {
		t.Fatal(err)
	}
	if bst.Surrogate.Loaded || bst.Surrogate.ModelHash != "" {
		t.Fatalf("no-model stats = %+v, want unloaded", bst.Surrogate)
	}
}

func TestXsectionValidation(t *testing.T) {
	_, ts := newSurrogateServer(t)
	for _, tc := range []struct {
		name string
		req  *CampaignRequest
	}{
		{"negative boron", xsectionRequest(-1, 3, "ROTAX", 1000, 0)},
		{"zero qcrit", xsectionRequest(1e14, 0, "ROTAX", 1000, 0)},
		{"bad spectrum", xsectionRequest(1e14, 3, "LANSCE", 1000, 0)},
		{"negative samples", xsectionRequest(1e14, 3, "ROTAX", -5, 0)},
		{"negative tolerance", xsectionRequest(1e14, 3, "ROTAX", 1000, -0.1)},
		{"tolerance >= 1", xsectionRequest(1e14, 3, "ROTAX", 1000, 1)},
		{"missing section", &CampaignRequest{Kind: KindXsection, Seed: 1}},
	} {
		resp, body := postCampaign(t, ts, tc.req, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, resp.StatusCode, body)
		}
	}
}

// TestXsectionNormalizeDefaults pins the canonical form: samples
// defaulted, tolerance validated but excluded from the cache key.
func TestXsectionNormalizeDefaults(t *testing.T) {
	base := xsectionRequest(1e14, 3, "rotax", 0, 0)
	n, err := base.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Xsection.Samples != surrogate.DefaultSamples {
		t.Errorf("samples defaulted to %d, want %d", n.Xsection.Samples, surrogate.DefaultSamples)
	}
	if n.Xsection.Spectrum != "ROTAX" {
		t.Errorf("spectrum normalized to %q", n.Xsection.Spectrum)
	}
	withTol := xsectionRequest(1e14, 3, "ROTAX", 0, 0.25)
	nt, err := withTol.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if nt.Tolerance != 0 {
		t.Errorf("normalized tolerance %v, want 0 (serving hint, not campaign state)", nt.Tolerance)
	}
	if n.CacheKey() != nt.CacheKey() {
		t.Error("tolerance leaked into the cache key")
	}
}
