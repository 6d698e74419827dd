package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"neutronsim/internal/beam"
	"neutronsim/internal/telemetry"
)

// TestReadyzBody checks the /readyz JSON contract both ways: ready with
// live queue numbers, and draining with 503 + Retry-After.
func TestReadyzBody(t *testing.T) {
	srv := New(Config{Workers: 1, Registry: telemetry.NewRegistry()})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var info ReadyzInfo
	if derr := json.NewDecoder(resp.Body).Decode(&info); derr != nil {
		t.Fatalf("decode readyz body: %v", derr)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz status %d", resp.StatusCode)
	}
	want := ReadyzInfo{Status: "ready", QueueDepth: 0, JobsRunning: 0, Draining: false}
	if info != want {
		t.Errorf("readyz body %+v, want %+v", info, want)
	}

	srv.draining.Store(true)
	resp, err = ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if derr := json.NewDecoder(resp.Body).Decode(&info); derr != nil {
		t.Fatalf("decode draining readyz body: %v", derr)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining readyz status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("draining readyz Retry-After %q, want 2", got)
	}
	if info.Status != "draining" || !info.Draining {
		t.Errorf("draining readyz body %+v", info)
	}
}

// shardsPost submits a ShardRequest and returns status + body.
func shardsPost(t *testing.T, ts *httptest.Server, body any) (int, []byte) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/shards", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// TestShardsEndpoint drives POST /v1/shards over HTTP: executing the
// full plan as two ranges and assembling locally must reproduce the
// direct library result bit-for-bit, and malformed ranges must 400.
func TestShardsEndpoint(t *testing.T) {
	srv := New(Config{Workers: 1, Registry: telemetry.NewRegistry()})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req, err := (&CampaignRequest{
		Kind: KindBeam,
		Seed: 512,
		Beam: &BeamParams{
			Device: "TitanV", Workload: "MxM", Spectrum: "ROTAX",
			DurationSeconds: 5, RunSeconds: 0.01, CalSamples: 2000, ShardGrain: 32,
		},
	}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := BeamConfig(req, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := t.Context()
	info, err := beam.PlanInfo(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := beam.RunContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}

	mid := info.Shards / 2
	var partials []*beam.Partial
	for _, r := range [][2]int{{0, mid}, {mid, info.Shards}} {
		status, body := shardsPost(t, ts, ShardRequest{Campaign: req, Lo: r[0], Hi: r[1]})
		if status != http.StatusOK {
			t.Fatalf("shards [%d,%d): status %d: %s", r[0], r[1], status, body)
		}
		var sr ShardResponse
		if err := json.Unmarshal(body, &sr); err != nil || sr.Partial == nil {
			t.Fatalf("decode shard response: %v", err)
		}
		partials = append(partials, sr.Partial)
	}
	got, err := beam.AssemblePartials(ctx, cfg, partials)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, direct) {
		t.Error("HTTP shard ranges assembled to a different result than the direct run")
	}

	for _, tc := range []struct {
		name string
		body any
		want string
	}{
		{"missing campaign", ShardRequest{Lo: 0, Hi: 1}, "missing campaign"},
		{"inverted range", ShardRequest{Campaign: req, Lo: 3, Hi: 1}, "invalid shard range"},
		{"outside plan", ShardRequest{Campaign: req, Lo: 0, Hi: info.Shards + 5}, "outside plan"},
		{"non-beam", ShardRequest{Campaign: &CampaignRequest{Kind: KindMemory, Memory: &MemoryParams{Generation: "DDR3", Band: "thermal", Flux: 1e5, DurationSeconds: 10}}, Lo: 0, Hi: 1}, "beam campaigns"},
		{"repeated member", json.RawMessage(`{"campaign":{"kind":"beam","seed":512,"beam":{"device":"TitanV","workload":"MxM","spectrum":"ROTAX","duration_seconds":5,"run_seconds":0.01,"cal_samples":2000,"shard_grain":32}},"lo":0,"hi":1,"Hi":2}`), "repeats member"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, body := shardsPost(t, ts, tc.body)
			if status != http.StatusBadRequest || !strings.Contains(string(body), tc.want) {
				t.Errorf("status %d body %s, want 400 containing %q", status, body, tc.want)
			}
		})
	}

	// Draining servers refuse ranges so the coordinator re-dispatches.
	srv.draining.Store(true)
	if status, _ := shardsPost(t, ts, ShardRequest{Campaign: req, Lo: 0, Hi: 1}); status != http.StatusServiceUnavailable {
		t.Errorf("draining shards status %d, want 503", status)
	}
}
