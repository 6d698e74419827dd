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
				ShardGrain:      beam.DefaultShardGrain,
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
		ShardGrain:      beam.DefaultShardGrain,
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
		transport.Options{ShardGrain: transport.DefaultShardGrain})
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
		ShardGrain:      memsim.DefaultShardGrain,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(env.Memory, direct) {
		t.Errorf("HTTP memory result differs from direct library call\nhttp:   %+v\ndirect: %+v", env.Memory, direct)
	}
}

// TestFastMemoryCampaignAbortsAsInDdrtest checks that a fast-band memory
// request left at the default abort limit runs ddrtest's campaign: it
// stops on the permanent-fault pile-up, as both modules did at ChipIR.
func TestFastMemoryCampaignAbortsAsInDdrtest(t *testing.T) {
	req, err := (&CampaignRequest{Kind: KindMemory, Seed: 3, Memory: &MemoryParams{
		Generation: "DDR4", Band: "fast", DurationSeconds: 7200,
	}}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	env, err := Execute(context.Background(), req, 2)
	if err != nil {
		t.Fatal(err)
	}
	// cmd/ddrtest's configuration for -module ddr4 -band fast -hours 2 -seed 3.
	direct, err := memsim.RunContext(context.Background(), memsim.Config{
		Spec:                memsim.DDR4Module(),
		Band:                memsim.FastBeam,
		Flux:                memsim.FastBeam.DefaultFlux(),
		DurationSeconds:     2 * 3600,
		PermanentAbortLimit: memsim.FastBeam.DefaultAbortLimit(),
		Seed:                3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !direct.Aborted || !env.Memory.Aborted {
		t.Errorf("aborted: neutrond %v, ddrtest %v; a fast campaign must stop on its permanent faults", env.Memory.Aborted, direct.Aborted)
	}
	if !reflect.DeepEqual(env.Memory, direct) {
		t.Errorf("neutrond's fast memory campaign differs from ddrtest's\nneutrond: %+v\nddrtest:  %+v", env.Memory, direct)
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
	// encoding/json matches member names case-insensitively and keeps the
	// last match, so member order would pick this campaign's seed.
	{"member repeated under case folding", `{"kind":"beam","seed":2,"Seed":1,"beam":{"device":"K20","workload":"MxM","spectrum":"ChipIR","duration_seconds":1}}`},
	// Request-size ceilings: each of these used to be accepted and then
	// kill the node with a fatal out-of-memory error.
	{"huge cal_samples", `{"kind":"beam","beam":{"device":"K20","workload":"MxM","spectrum":"ChipIR","duration_seconds":2,"cal_samples":400000000}}`},
	{"huge xsection samples", `{"kind":"xsection","xsection":{"boron_per_cm2":1e14,"qcrit_fc":3,"spectrum":"ROTAX","samples":400000000,"bias":{"thermal":10}}}`},
	{"huge run count", `{"kind":"beam","beam":{"device":"K20","workload":"MxM","spectrum":"ChipIR","duration_seconds":1e6,"run_seconds":1e-9}}`},
	{"huge shard count", `{"kind":"beam","beam":{"device":"K20","workload":"MxM","spectrum":"ChipIR","duration_seconds":100000,"run_seconds":0.01,"shard_grain":1}}`},
	{"huge auto-tuned shard count", `{"kind":"beam","beam":{"device":"K20","workload":"MxM","spectrum":"ChipIR","duration_seconds":2,"shard_grain":1}}`},
	{"huge memory shard count", `{"kind":"memory","memory":{"generation":"DDR3","duration_seconds":1e12,"pass_seconds":1e-3,"shard_grain":1}}`},
	{"huge transport shard count", `{"kind":"transport","transport":{"slabs":[{"material":"Water","thickness_cm":1}],"neutrons":4000000000,"shard_grain":1}}`},
	// Request lists: a repeated workload would run twice and weigh twice
	// in the device average, and a geometry has a layer ceiling.
	{"workload named twice", `{"kind":"assess","assess":{"device":"K20","workloads":["MxM"," MxM"]}}`},
	{"one slab over the ceiling", `{"kind":"transport","transport":{"slabs":[` + strings.Repeat(`{"material":"Water","thickness_cm":1},`, maxSlabs) + `{"material":"Water","thickness_cm":1}],"neutrons":100}}`},
	// Long rejected values, which a 400 must not echo whole.
	{"long unknown device", `{"kind":"beam","beam":{"device":"` + strings.Repeat("a", 4096) + `","workload":"MxM","spectrum":"ChipIR","duration_seconds":1}}`},
	{"long unknown member", `{"kind":"beam","` + strings.Repeat("b", 4096) + `":1}`},
	{"long number", `{"kind":"beam","seed":1` + strings.Repeat("0", 4096) + `}`},
	// Data after the value: the decoder stops at the end of the first
	// value, so both of these used to be answered 202.
	{"trailing garbage", `{"kind":"memory","memory":{"generation":"DDR3","duration_seconds":1}} trailing garbage {{{`},
	{"two values", `{"kind":"memory","memory":{"generation":"DDR3","duration_seconds":1}}{"kind":"memory","memory":{"generation":"DDR3","duration_seconds":1}}`},
}

// TestSubmitValidation exercises the 400 paths. No reply quotes more than
// a clipped piece of the body.
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
		reply, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		if len(reply) > 256 {
			t.Errorf("%s: the 400 reply is %d bytes: %.300s", tc.name, len(reply), reply)
		}
	}
}

// TestSubmitTrailingWhitespace: only whitespace may follow a request's
// value, and it may: a body that ends in a newline is accepted.
func TestSubmitTrailingWhitespace(t *testing.T) {
	srv := New(Config{Workers: 1, Registry: telemetry.NewRegistry()})
	defer srv.Drain()
	body := `{"kind":"memory","seed":3,"memory":{"generation":"DDR3","duration_seconds":1}}` + "\n"
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/campaigns", strings.NewReader(body)))
	if rec.Code != http.StatusAccepted {
		t.Errorf("a body ending in a newline: status %d, want 202: %.200s", rec.Code, rec.Body.Bytes())
	}
}

// TestUnknownJobReplyIsClipped: every /v1/jobs/{id} route answers an
// unknown id with a 404 that quotes the id clipped, never whole.
func TestUnknownJobReplyIsClipped(t *testing.T) {
	srv := New(Config{Workers: 1, Registry: telemetry.NewRegistry()})
	defer srv.Drain()
	id := strings.Repeat("j", 3000)
	for _, route := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/" + id},
		{http.MethodDelete, "/v1/jobs/" + id},
		{http.MethodGet, "/v1/jobs/" + id + "/events"},
		{http.MethodGet, "/v1/jobs/" + id + "/trace"},
	} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(route.method, route.path, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s %.30s…: status %d, want 404", route.method, route.path, rec.Code)
		}
		if rec.Body.Len() > 256 {
			t.Errorf("%s %.30s…: the 404 reply is %d bytes", route.method, route.path, rec.Body.Len())
		}
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestRequestBodyCap: both POST surfaces decode a body of maxBodyBytes,
// and answer 413 to a longer one after reading at most the cap plus one
// read buffer. Each body is whitespace followed by a valid request, so
// only its length is wrong.
func TestRequestBodyCap(t *testing.T) {
	srv := New(Config{Workers: 1, Registry: telemetry.NewRegistry()})
	defer srv.Drain()
	campaign := `{"kind":"beam","seed":1,"beam":{"device":"K20","workload":"MxM","spectrum":"ChipIR","duration_seconds":2,"cal_samples":2000}}`
	shards := `{"campaign":` + campaign + `,"lo":0,"hi":1}`
	for _, tc := range []struct {
		path, body string
		size, want int
	}{
		{"/v1/campaigns", campaign, maxBodyBytes, http.StatusAccepted},
		{"/v1/shards", shards, maxBodyBytes, http.StatusOK},
		{"/v1/campaigns", campaign, maxBodyBytes + 1, http.StatusRequestEntityTooLarge},
		{"/v1/shards", shards, maxBodyBytes + 1, http.StatusRequestEntityTooLarge},
		{"/v1/campaigns", campaign, 1 << 20, http.StatusRequestEntityTooLarge},
	} {
		body := &countingReader{r: strings.NewReader(strings.Repeat(" ", tc.size-len(tc.body)) + tc.body)}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, body))
		if rec.Code != tc.want {
			t.Errorf("%s with a %d-byte body: status %d, want %d: %.200s", tc.path, tc.size, rec.Code, tc.want, rec.Body.Bytes())
		}
		if body.n > maxBodyBytes+4096 {
			t.Errorf("%s with a %d-byte body: the server read %d bytes, cap %d", tc.path, tc.size, body.n, maxBodyBytes)
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

// TestAutoTunedPileUpRejected checks that an auto-tuned beam campaign too
// long to split into beam.MaxAutoRuns runs of λ ≤ 0.05 fails, instead of
// running at a higher λ where a run with several faults counts as one
// event. On K20 at ChipIR, 1e6 s would average λ ≈ 0.16: neutrond accepts
// it with 202 and the job fails naming λ, and beam.PlanInfo, where a
// coordinator starts, fails before any fan-out. 1e5 s still plans.
func TestAutoTunedPileUpRejected(t *testing.T) {
	campaign := func(seconds float64) *CampaignRequest {
		n, err := (&CampaignRequest{Kind: KindBeam, Seed: 1, Beam: &BeamParams{
			Device: "K20", Workload: "MxM", Spectrum: "ChipIR", DurationSeconds: seconds,
		}}).Normalize()
		if err != nil {
			t.Fatalf("%g s: Normalize: %v", seconds, err)
		}
		return n
	}
	srv := New(Config{Workers: 1, Registry: telemetry.NewRegistry()})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, body := postCampaign(t, ts, campaign(1e6), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var info JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if job := awaitJob(t, ts, info.ID, 10*time.Second); job.State != StateFailed || !strings.Contains(job.Error, "λ") {
		t.Errorf("1e6 s job ended %s (%q), want failed naming λ", job.State, job.Error)
	}
	for _, seconds := range []float64{1e6, 1e5} {
		cfg, err := BeamConfig(campaign(seconds), 1)
		if err != nil {
			t.Fatal(err)
		}
		_, err = beam.PlanInfo(context.Background(), cfg)
		switch {
		case seconds == 1e6 && (err == nil || !strings.Contains(err.Error(), "run_seconds")):
			t.Errorf("1e6 s: PlanInfo error %v, want one suggesting run_seconds", err)
		case seconds == 1e5 && err != nil:
			t.Errorf("1e5 s: PlanInfo: %v", err)
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
		Derating: 1, CalSamples: 20000, ShardGrain: beam.DefaultShardGrain,
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
