package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"neutronsim/internal/beam"
	"neutronsim/internal/memsim"
	"neutronsim/internal/plan"
	"neutronsim/internal/rng"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/telemetry"
	"neutronsim/internal/transport"
	"neutronsim/internal/units"
)

// postCampaign submits a request and returns the response with its body.
func postCampaign(t *testing.T, ts *httptest.Server, req *CampaignRequest, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/campaigns", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		hreq.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatalf("POST /v1/campaigns: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp, body
}

// awaitJob polls a job until it reaches a terminal state.
func awaitJob(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) JobInfo {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("GET job %s: %v", id, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("read job %s: %v", id, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job %s: status %d: %s", id, resp.StatusCode, body)
		}
		var info JobInfo
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatalf("decode job %s: %v", id, err)
		}
		switch info.State {
		case StateDone, StateFailed, StateCanceled:
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, info.State, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// submitAndAwait runs one campaign to completion through the HTTP API and
// returns the terminal job info.
func submitAndAwait(t *testing.T, ts *httptest.Server, req *CampaignRequest) JobInfo {
	t.Helper()
	resp, body := postCampaign(t, ts, req, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var info JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatalf("decode 202 body: %v", err)
	}
	return awaitJob(t, ts, info.ID, 2*time.Minute)
}

// TestConformanceBeamHTTP is the PR's acceptance gate: for three catalog
// devices on both spectra, the result served over HTTP must DeepEqual the
// direct library call, and a second identical POST must be served from the
// cache with a byte-identical payload.
func TestConformanceBeamHTTP(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := New(Config{Workers: 2, Registry: reg})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	devices := []string{"K20", "TitanV", "Zynq7000"}
	spectra := []string{"ChipIR", "ROTAX"}
	for i, devName := range devices {
		for k, spName := range spectra {
			seed := uint64(100 + 10*i + k)
			req := &CampaignRequest{
				Kind: KindBeam,
				Seed: seed,
				Beam: &BeamParams{
					Device:          devName,
					Workload:        "MxM",
					Spectrum:        spName,
					DurationSeconds: 2,
					CalSamples:      2000,
				},
			}
			info := submitAndAwait(t, ts, req)
			if info.State != StateDone {
				t.Fatalf("%s/%s: job ended %s: %s", devName, spName, info.State, info.Error)
			}
			var env ResultEnvelope
			if err := json.Unmarshal(info.Result, &env); err != nil {
				t.Fatalf("%s/%s: decode envelope: %v", devName, spName, err)
			}
			if env.Kind != KindBeam || env.Beam == nil {
				t.Fatalf("%s/%s: envelope missing beam result", devName, spName)
			}

			// The direct library call the HTTP result must match, with the
			// same values normalization fills in.
			d, err := DeviceByName(devName)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := SpectrumByName(spName)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := beam.RunContext(context.Background(), beam.Config{
				Device:          d,
				WorkloadName:    "MxM",
				Beam:            sp,
				DurationSeconds: 2,
				Derating:        1,
				Seed:            seed,
				CalSamples:      2000,
				ShardGrain:      defaultBeamGrain,
			})
			if err != nil {
				t.Fatalf("%s/%s: direct run: %v", devName, spName, err)
			}
			if !reflect.DeepEqual(env.Beam, direct) {
				t.Errorf("%s/%s: HTTP result differs from direct library call\nhttp:   %+v\ndirect: %+v",
					devName, spName, env.Beam, direct)
			}

			// Second identical POST: cache hit, counter bump, identical bytes.
			hits := reg.Counter("server.cache_hits").Value()
			resp2, body2 := postCampaign(t, ts, req, nil)
			if resp2.StatusCode != http.StatusOK {
				t.Fatalf("%s/%s: repeat POST: status %d: %s", devName, spName, resp2.StatusCode, body2)
			}
			if got := resp2.Header.Get("X-Cache"); got != "hit" {
				t.Errorf("%s/%s: repeat POST X-Cache = %q, want hit", devName, spName, got)
			}
			if got := reg.Counter("server.cache_hits").Value(); got != hits+1 {
				t.Errorf("%s/%s: cache_hits = %d, want %d", devName, spName, got, hits+1)
			}
			if !bytes.Equal(body2, []byte(info.Result)) {
				t.Errorf("%s/%s: cached payload differs from the job's result bytes", devName, spName)
			}
			if etag := resp2.Header.Get("ETag"); etag == "" || etag != ETagFor(body2) {
				t.Errorf("%s/%s: ETag %q does not match body", devName, spName, resp2.Header.Get("ETag"))
			}
		}
	}
}

// TestConformanceBiasedBeamHTTP extends the HTTP conformance gate to
// importance-sampled campaigns: a biased request must DeepEqual the
// direct library call after a JSON round trip — which is exactly the
// finalized-Kahan guarantee of stats.Weighted — and exact, identity-bias
// and biased spellings of the same campaign must occupy distinct cache
// entries.
func TestConformanceBiasedBeamHTTP(t *testing.T) {
	srv := New(Config{Workers: 2, Registry: telemetry.NewRegistry()})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	base := func(bias *plan.Bias) *CampaignRequest {
		return &CampaignRequest{
			Kind: KindBeam,
			Seed: 77,
			Beam: &BeamParams{
				Device:          "Zynq7000",
				Workload:        "MxM",
				Spectrum:        "ChipIR",
				DurationSeconds: 2,
				CalSamples:      2000,
				Bias:            bias,
			},
		}
	}
	info := submitAndAwait(t, ts, base(&plan.Bias{Thermal: 50}))
	if info.State != StateDone {
		t.Fatalf("biased job ended %s: %s", info.State, info.Error)
	}
	var env ResultEnvelope
	if err := json.Unmarshal(info.Result, &env); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	if env.Beam == nil || env.Beam.Weighted == nil {
		t.Fatal("biased campaign result carries no weighted section over HTTP")
	}
	d, _ := DeviceByName("Zynq7000")
	sp, _ := SpectrumByName("ChipIR")
	direct, err := beam.RunContext(context.Background(), beam.Config{
		Device:          d,
		WorkloadName:    "MxM",
		Beam:            sp,
		DurationSeconds: 2,
		Derating:        1,
		Seed:            77,
		CalSamples:      2000,
		ShardGrain:      defaultBeamGrain,
		Bias:            &plan.Bias{Thermal: 50},
	})
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	if !reflect.DeepEqual(env.Beam, direct) {
		t.Errorf("HTTP biased result differs from direct library call\nhttp:   %+v\ndirect: %+v", env.Beam, direct)
	}

	// The three spellings are three campaigns: distinct cache keys.
	keys := map[string]string{}
	for name, req := range map[string]*CampaignRequest{
		"exact":    base(nil),
		"identity": base(&plan.Bias{}),
		"biased":   base(&plan.Bias{Thermal: 50}),
	} {
		norm, err := req.Normalize()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		k := norm.CacheKey()
		for prev, pk := range keys {
			if pk == k {
				t.Errorf("%s and %s share a cache key", name, prev)
			}
		}
		keys[name] = k
	}

	// Invalid bias factors are rejected at submission, not at run time.
	resp, body := postCampaign(t, ts, base(&plan.Bias{Thermal: -2}), nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative bias factor: status %d (%s), want 400", resp.StatusCode, body)
	}
}

// TestConformanceImplicitCaptureHTTP round-trips a weighted transport
// campaign: the implicit_capture knob reaches the simulator, the weighted
// tallies survive JSON, and the knob is part of the cache key.
func TestConformanceImplicitCaptureHTTP(t *testing.T) {
	srv := New(Config{Workers: 1, Registry: telemetry.NewRegistry()})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := &CampaignRequest{
		Kind: KindTransport,
		Seed: 9,
		Transport: &TransportParams{
			Slabs:           []SlabParam{{Material: "water", ThicknessCm: 5.08}},
			Neutrons:        5000,
			Source:          "ChipIR",
			ImplicitCapture: true,
		},
	}
	info := submitAndAwait(t, ts, req)
	if info.State != StateDone {
		t.Fatalf("implicit-capture job ended %s: %s", info.State, info.Error)
	}
	var env ResultEnvelope
	if err := json.Unmarshal(info.Result, &env); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	if env.Transport == nil || env.Transport.Weighted == nil {
		t.Fatal("implicit-capture result carries no weighted section over HTTP")
	}
	if env.Transport.Weighted.Absorbed.SumW <= 0 {
		t.Error("weighted absorption did not survive the JSON round trip")
	}
	analog := *req
	tp := *req.Transport
	tp.ImplicitCapture = false
	analog.Transport = &tp
	na, err := analog.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	nw, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if na.CacheKey() == nw.CacheKey() {
		t.Error("implicit_capture does not move the transport cache key")
	}
}

// TestConformanceTransportHTTP checks the transport dispatch path against
// the library, including the material and spectrum registries.
func TestConformanceTransportHTTP(t *testing.T) {
	srv := New(Config{Workers: 1, Registry: telemetry.NewRegistry()})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := &CampaignRequest{
		Kind: KindTransport,
		Seed: 17,
		Transport: &TransportParams{
			Slabs:    []SlabParam{{Material: "water", ThicknessCm: 5}},
			Neutrons: 20000,
			Source:   "ChipIR",
		},
	}
	info := submitAndAwait(t, ts, req)
	if info.State != StateDone {
		t.Fatalf("job ended %s: %s", info.State, info.Error)
	}
	var env ResultEnvelope
	if err := json.Unmarshal(info.Result, &env); err != nil {
		t.Fatal(err)
	}
	m, err := MaterialByName("water")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := transport.SimulateContext(context.Background(),
		[]transport.Slab{{Material: m, Thickness: 5}},
		20000, spectrum.ChipIR().Sample, rng.New(17),
		transport.Options{ShardGrain: defaultTransportGrain})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(env.Transport, direct) {
		t.Errorf("HTTP tally differs from direct library call\nhttp:   %+v\ndirect: %+v", env.Transport, direct)
	}
}

// TestConformanceMemoryHTTP checks the memory dispatch path and the band
// defaulting (thermal band at ROTAX total flux).
func TestConformanceMemoryHTTP(t *testing.T) {
	srv := New(Config{Workers: 1, Registry: telemetry.NewRegistry()})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := &CampaignRequest{
		Kind: KindMemory,
		Seed: 5,
		Memory: &MemoryParams{
			Generation:      "DDR4",
			DurationSeconds: 600,
		},
	}
	info := submitAndAwait(t, ts, req)
	if info.State != StateDone {
		t.Fatalf("job ended %s: %s", info.State, info.Error)
	}
	var env ResultEnvelope
	if err := json.Unmarshal(info.Result, &env); err != nil {
		t.Fatal(err)
	}
	direct, err := memsim.RunContext(context.Background(), memsim.Config{
		Spec:            memsim.DDR4Module(),
		Band:            memsim.ThermalBeam,
		Flux:            units.Flux(float64(spectrum.ROTAXTotalFlux)),
		DurationSeconds: 600,
		PassSeconds:     1,
		Seed:            5,
		ShardGrain:      defaultMemoryGrain,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(env.Memory, direct) {
		t.Errorf("HTTP memory result differs from direct library call\nhttp:   %+v\ndirect: %+v", env.Memory, direct)
	}
}

// invalidSubmits are submit bodies the service must answer with 400.
var invalidSubmits = []struct {
	name string
	body string
}{
	{"bad json", `{`},
	{"unknown field", `{"kind":"beam","frobnicate":1}`},
	{"unknown kind", `{"kind":"warp"}`},
	{"missing section", `{"kind":"beam"}`},
	{"unknown device", `{"kind":"beam","beam":{"device":"PDP11","workload":"MxM","spectrum":"ChipIR","duration_seconds":1}}`},
	{"unknown spectrum", `{"kind":"beam","beam":{"device":"K20","workload":"MxM","spectrum":"LANSCE","duration_seconds":1}}`},
	{"unknown material", `{"kind":"transport","transport":{"slabs":[{"material":"unobtainium","thickness_cm":1}],"neutrons":100}}`},
	{"two sections", `{"kind":"beam","beam":{"device":"K20","workload":"MxM","spectrum":"ChipIR","duration_seconds":1},"memory":{"generation":"DDR3","duration_seconds":1}}`},
	{"zero duration", `{"kind":"beam","beam":{"device":"K20","workload":"MxM","spectrum":"ChipIR"}}`},
	// Request-size ceilings: each of these used to be accepted and then
	// kill the node with a fatal out-of-memory error.
	{"huge cal_samples", `{"kind":"beam","beam":{"device":"K20","workload":"MxM","spectrum":"ChipIR","duration_seconds":2,"cal_samples":400000000}}`},
	{"huge xsection samples", `{"kind":"xsection","xsection":{"boron_per_cm2":1e14,"qcrit_fc":3,"spectrum":"ROTAX","samples":400000000,"bias":{"thermal":10}}}`},
	{"huge run count", `{"kind":"beam","beam":{"device":"K20","workload":"MxM","spectrum":"ChipIR","duration_seconds":1e6,"run_seconds":1e-9}}`},
	{"huge shard count", `{"kind":"beam","beam":{"device":"K20","workload":"MxM","spectrum":"ChipIR","duration_seconds":100000,"run_seconds":0.01,"shard_grain":1}}`},
	{"huge auto-tuned shard count", `{"kind":"beam","beam":{"device":"K20","workload":"MxM","spectrum":"ChipIR","duration_seconds":2,"shard_grain":1}}`},
	{"huge memory shard count", `{"kind":"memory","memory":{"generation":"DDR3","duration_seconds":1e12,"pass_seconds":1e-3,"shard_grain":1}}`},
	{"huge transport shard count", `{"kind":"transport","transport":{"slabs":[{"material":"Water","thickness_cm":1}],"neutrons":4000000000,"shard_grain":1}}`},
}

// TestSubmitValidation exercises the 400 paths.
func TestSubmitValidation(t *testing.T) {
	srv := New(Config{Workers: 1, Registry: telemetry.NewRegistry()})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range invalidSubmits {
		resp, err := ts.Client().Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewBufferString(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

// TestAbsurdRunLambdaRejected checks that a beam campaign whose runs would
// each hold an absurd number of interactions passes Normalize, which
// cannot see λ, but then fails at once, both as a job (Execute) and as a
// coordinator's partition (beam.PlanInfo), instead of drawing without end.
func TestAbsurdRunLambdaRejected(t *testing.T) {
	for _, body := range []string{
		`{"kind":"beam","seed":1,"beam":{"device":"K20","workload":"MxM","spectrum":"ChipIR","duration_seconds":1e25}}`,
		`{"kind":"beam","seed":1,"beam":{"device":"K20","workload":"MxM","spectrum":"ChipIR","duration_seconds":1e15,"run_seconds":1e15}}`,
	} {
		var req CampaignRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		n, err := req.Normalize()
		if err != nil {
			t.Fatalf("%s: Normalize: %v", body, err)
		}
		start := time.Now()
		if _, err := Execute(context.Background(), n, 1); err == nil || !strings.Contains(err.Error(), "λ") {
			t.Errorf("%s: Execute error %v, want one naming λ", body, err)
		}
		cfg, err := BeamConfig(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := beam.PlanInfo(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "run_seconds") {
			t.Errorf("%s: PlanInfo error %v, want one suggesting a shorter run_seconds", body, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: rejected after %v", body, d)
		}
	}
}

// TestNormalizeExactXsectionUncapped checks that maxSamples bounds only a
// biased xsection query, which compiles a plan of its samples; the exact
// query streams them in constant memory.
func TestNormalizeExactXsectionUncapped(t *testing.T) {
	req := &CampaignRequest{Kind: KindXsection, Xsection: &XsectionParams{
		BoronPerCm2: 1e14, QcritFC: 3, Spectrum: "ROTAX", Samples: 4 * maxSamples,
	}}
	if _, err := req.Normalize(); err != nil {
		t.Fatalf("exact xsection of %d samples rejected: %v", req.Xsection.Samples, err)
	}
}

// TestCatalogEndpoints sanity-checks the discovery endpoints.
func TestCatalogEndpoints(t *testing.T) {
	srv := New(Config{Workers: 1, Registry: telemetry.NewRegistry()})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		path string
		want string
	}{
		{"/v1/devices", "K20"},
		{"/v1/spectra", "ROTAX"},
		{"/v1/materials", "borated polyethylene"},
		{"/healthz", "ok"},
		{"/readyz", "ready"},
	} {
		resp, err := ts.Client().Get(ts.URL + tc.path)
		if err != nil {
			t.Fatalf("GET %s: %v", tc.path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", tc.path, resp.StatusCode)
		}
		if !bytes.Contains(body, []byte(tc.want)) {
			t.Errorf("GET %s: body %q missing %q", tc.path, body, tc.want)
		}
	}
}

// TestNormalizeIdempotentAndKeyed checks that normalization is idempotent
// and that implicit and explicit defaults share one cache key.
func TestNormalizeIdempotentAndKeyed(t *testing.T) {
	implicit := &CampaignRequest{Kind: "Beam", Seed: 9, Beam: &BeamParams{
		Device: "K20", Workload: "MxM", Spectrum: "chipir", DurationSeconds: 3,
	}}
	explicit := &CampaignRequest{Kind: KindBeam, Seed: 9, Beam: &BeamParams{
		Device: "K20", Workload: "MxM", Spectrum: "ChipIR", DurationSeconds: 3,
		Derating: 1, CalSamples: 20000, ShardGrain: defaultBeamGrain,
	}}
	n1, err := implicit.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	n2, err := explicit.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n1.CacheKey() != n2.CacheKey() {
		t.Errorf("implicit and explicit defaults hash differently:\n%+v\n%+v", n1.Beam, n2.Beam)
	}
	again, err := n1.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(n1, again) {
		t.Errorf("normalization is not idempotent: %+v vs %+v", n1, again)
	}
	seeded := &CampaignRequest{Kind: KindBeam, Seed: 10, Beam: implicit.Beam}
	n3, err := seeded.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n3.CacheKey() == n1.CacheKey() {
		t.Error("seed is not part of the cache key")
	}
}
