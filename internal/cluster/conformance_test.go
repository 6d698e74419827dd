package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"neutronsim/internal/plan"
	"neutronsim/internal/server"
	"neutronsim/internal/telemetry"
)

// worker is one test-fleet member: a real neutrond server on a real
// listener, so dispatch exercises the actual HTTP path.
type worker struct {
	ts  *httptest.Server
	srv *server.Server
}

func startWorkers(t *testing.T, n int) []*worker {
	t.Helper()
	ws := make([]*worker, n)
	for i := range ws {
		srv := server.New(server.Config{
			Workers:  2,
			Registry: telemetry.NewRegistry(),
		})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		ws[i] = &worker{ts: ts, srv: srv}
	}
	return ws
}

func urlsOf(ws []*worker) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.ts.URL
	}
	return out
}

func testCoordinator(ctx context.Context, t *testing.T, peers []string, reg *telemetry.Registry) *Coordinator {
	t.Helper()
	c := New(Config{Peers: peers, Registry: reg})
	c.client.http.Timeout = 30 * time.Second
	c.healthInterval = 50 * time.Millisecond
	c.downCooldown = 100 * time.Millisecond
	c.Start(ctx)
	if len(peers) > 0 && len(c.Peers().Healthy()) == 0 {
		t.Fatal("no healthy peers after initial poll")
	}
	return c
}

// clusterReq builds a beam campaign that decomposes into a multi-shard
// plan (500 runs over grain 32 → 16 shards), so Execute takes the
// fan-out path rather than whole-job routing.
func clusterReq(t *testing.T, dev, spec string, seed uint64) *server.CampaignRequest {
	t.Helper()
	req, err := (&server.CampaignRequest{
		Kind: server.KindBeam,
		Seed: seed,
		Beam: &server.BeamParams{
			Device:          dev,
			Workload:        "MxM",
			Spectrum:        spec,
			DurationSeconds: 5,
			RunSeconds:      0.01,
			CalSamples:      2000,
			ShardGrain:      32,
		},
	}).Normalize()
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	return req
}

// TestDistributedConformance is the cluster's core guarantee: for fleets
// of 1, 2 and 3 workers, a coordinator-executed campaign is DeepEqual to
// the direct library result, across three device architectures and both
// paper spectra. The shard partials cross real HTTP and JSON on the way.
func TestDistributedConformance(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	devices := []string{"XeonPhi", "K20", "Zynq7000"}
	spectra := []string{"ChipIR", "ROTAX"}

	type key struct{ dev, spec string }
	direct := map[key]*server.ResultEnvelope{}
	for i, dev := range devices {
		for j, spec := range spectra {
			req := clusterReq(t, dev, spec, uint64(500+10*i+j))
			env, err := server.Execute(ctx, req, 2)
			if err != nil {
				t.Fatalf("direct %s/%s: %v", dev, spec, err)
			}
			direct[key{dev, spec}] = env
		}
	}

	for _, workers := range []int{1, 2, 3} {
		t.Run(map[int]string{1: "1worker", 2: "2workers", 3: "3workers"}[workers], func(t *testing.T) {
			ws := startWorkers(t, workers)
			reg := telemetry.NewRegistry()
			coord := testCoordinator(ctx, t, urlsOf(ws), reg)
			for i, dev := range devices {
				for j, spec := range spectra {
					req := clusterReq(t, dev, spec, uint64(500+10*i+j))
					env, err := coord.Execute(ctx, req, 2)
					if err != nil {
						t.Fatalf("%s/%s: %v", dev, spec, err)
					}
					want := direct[key{dev, spec}]
					if !reflect.DeepEqual(env, want) {
						t.Errorf("%s/%s with %d workers: distributed result diverged\n got: %+v\nwant: %+v",
							dev, spec, workers, env.Beam, want.Beam)
					}
				}
			}
			if reg.Counter("cluster.ranges_dispatched").Value() == 0 {
				t.Error("no shard ranges were dispatched to peers")
			}
		})
	}
}

// TestDistributedConformanceBiased covers the importance-sampled path:
// weighted Kahan tallies must survive dispatch, the wire, and re-assembly
// bit-for-bit.
func TestDistributedConformanceBiased(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := (&server.CampaignRequest{
		Kind: server.KindBeam,
		Seed: 77,
		Beam: &server.BeamParams{
			Device:          "Zynq7000",
			Workload:        "MxM",
			Spectrum:        "ChipIR",
			DurationSeconds: 5,
			RunSeconds:      0.01,
			CalSamples:      2000,
			ShardGrain:      32,
			Bias:            &plan.Bias{Thermal: 8},
		},
	}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	want, err := server.Execute(ctx, req, 2)
	if err != nil {
		t.Fatal(err)
	}
	ws := startWorkers(t, 2)
	coord := testCoordinator(ctx, t, urlsOf(ws), telemetry.NewRegistry())
	got, err := coord.Execute(ctx, req, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("biased distributed result diverged\n got: %+v\nwant: %+v", got.Beam, want.Beam)
	}
}

// TestDistributedConformanceWarmPlans pins that a plan belongs to its
// physics, not its seed: after one warm-up campaign, a fanned-out campaign
// on a fresh seed compiles on no node. The nodes here share one process
// and so one plan cache, whose miss counter must stay flat while the
// coordinator and both workers execute; the result still DeepEquals the
// single-node one.
func TestDistributedConformanceWarmPlans(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	warm := clusterReq(t, "TitanV", "ChipIR", 611)
	warm.Beam.CalSamples = 2100 // a budget no other test uses: this test's own plan
	if _, err := server.Execute(ctx, warm, 2); err != nil {
		t.Fatal(err)
	}
	misses := plan.Shared.Stats().Misses
	req := clusterReq(t, "TitanV", "ChipIR", 612)
	req.Beam.CalSamples = warm.Beam.CalSamples
	want, err := server.Execute(ctx, req, 2)
	if err != nil {
		t.Fatal(err)
	}
	ws := startWorkers(t, 2)
	reg := telemetry.NewRegistry()
	coord := testCoordinator(ctx, t, urlsOf(ws), reg)
	got, err := coord.Execute(ctx, req, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("warm-plan distributed result diverged\n got: %+v\nwant: %+v", got.Beam, want.Beam)
	}
	if reg.Counter("cluster.ranges_dispatched").Value() == 0 {
		t.Error("no shard ranges were dispatched to peers")
	}
	if now := plan.Shared.Stats().Misses; now != misses {
		t.Errorf("a fresh-seed campaign with warm plans compiled %d plans, want 0", now-misses)
	}
}

// TestWorkerKillMidCampaign: a worker dying mid-fan-out must cost
// nothing but time — its ranges re-dispatch (to the surviving peer or
// locally) and the final result is still bit-identical. Worker 0 is a
// deterministic casualty: it answers /readyz (so the coordinator
// dispatches to it) but resets the connection on every shard range, the
// worst case of "accepted work, died mid-execution".
func TestWorkerKillMidCampaign(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := clusterReq(t, "K20", "ROTAX", 901)
	req.Beam.DurationSeconds = 20
	var err error
	if req, err = req.Normalize(); err != nil {
		t.Fatal(err)
	}
	want, err := server.Execute(ctx, req, 2)
	if err != nil {
		t.Fatal(err)
	}

	healthy := startWorkers(t, 1)[0]
	var shardCalls atomic.Int64
	victim := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/shards" {
			shardCalls.Add(1)
			panic(http.ErrAbortHandler) // reset the connection mid-request
		}
		healthy.srv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(victim.Close)

	reg := telemetry.NewRegistry()
	coord := New(Config{Peers: []string{victim.URL, healthy.ts.URL}, Registry: reg})
	coord.rangesPerPeer = 4
	coord.client.http.Timeout = 10 * time.Second
	coord.healthInterval = 50 * time.Millisecond
	coord.downCooldown = time.Minute // once lost, stay lost for this test
	coord.Start(ctx)

	got, err := coord.Execute(ctx, req, 2)
	if err != nil {
		t.Fatalf("execute with dying worker: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("result after worker kill diverged\n got: %+v\nwant: %+v", got.Beam, want.Beam)
	}
	if shardCalls.Load() == 0 {
		t.Error("dying worker was never dispatched to; kill path untested")
	}
	if reg.Counter("cluster.ranges_redispatched").Value() == 0 {
		t.Error("no range was re-dispatched")
	}
}

// TestEndlessPeerReply: a peer that answers every shard range with a 200
// whose body never ends fails only its own range. The coordinator reads
// at most the range's reply ceiling, counts the overflow as a peer fault
// and re-dispatches the range, so the result still DeepEquals a single
// node's. Without a ceiling the coordinator reads until the range times
// out.
func TestEndlessPeerReply(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := clusterReq(t, "K20", "ROTAX", 902)
	want, err := server.Execute(ctx, req, 2)
	if err != nil {
		t.Fatal(err)
	}

	healthy := startWorkers(t, 1)[0]
	tally := strings.Repeat(`{"sdc":0,"due":0,"masked":1,"upsets":0,"reprograms":0,"interactions":0,"by_band":[0,0,0,0]},`, 45)
	var shardCalls, written atomic.Int64
	endless := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/shards" {
			healthy.srv.Handler().ServeHTTP(w, r)
			return
		}
		shardCalls.Add(1)
		// A valid start, then 4 KiB of tallies a millisecond until the
		// coordinator hangs up.
		n, err := io.WriteString(w, `{"partial":{"range":{"lo":0,"hi":1},"tallies":[`)
		for err == nil && r.Context().Err() == nil {
			written.Add(int64(n))
			n, err = io.WriteString(w, tally)
			w.(http.Flusher).Flush()
			time.Sleep(time.Millisecond)
		}
	}))
	t.Cleanup(endless.Close)

	reg := telemetry.NewRegistry()
	coord := New(Config{Peers: []string{endless.URL, healthy.ts.URL}, Registry: reg})
	coord.rangesPerPeer = 4
	coord.client.http.Timeout = 5 * time.Second
	coord.healthInterval = 50 * time.Millisecond
	coord.downCooldown = time.Minute
	coord.Start(ctx)

	got, err := coord.Execute(ctx, req, 2)
	if err != nil {
		t.Fatalf("execute with an endless peer: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("result with an endless peer diverged\n got: %+v\nwant: %+v", got.Beam, want.Beam)
	}
	if shardCalls.Load() == 0 {
		t.Fatal("the endless peer was never dispatched to")
	}
	if n := reg.Counter("cluster.ranges_redispatched").Value(); n != 1 {
		t.Errorf("%d ranges re-dispatched, want the endless peer's one", n)
	}
	endless.Close() // waits for the handlers, so written is final
	if n := written.Load(); n > 1<<20 {
		t.Errorf("the endless peer wrote %d bytes in %d replies before the coordinator hung up", n, shardCalls.Load())
	}
}

// TestDrainingPeerFailsOverAtOnce: a peer that starts draining between
// two /readyz polls refuses its shard range with 503 and Retry-After.
// The coordinator re-dispatches that range at once, so the peer sees one
// call, the campaign does not wait out the hint, and the result still
// DeepEquals a single node's.
func TestDrainingPeerFailsOverAtOnce(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := clusterReq(t, "K20", "ChipIR", 903)
	want, err := server.Execute(ctx, req, 2)
	if err != nil {
		t.Fatal(err)
	}

	ws := startWorkers(t, 2)
	var shardCalls atomic.Int64
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/shards" {
			shardCalls.Add(1)
		}
		ws[0].srv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(draining.Close)

	coord := New(Config{Peers: []string{draining.URL, ws[1].ts.URL}, Registry: telemetry.NewRegistry()})
	coord.healthInterval = time.Hour // no later poll sees the drain
	coord.Start(ctx)
	if n := len(coord.Peers().Healthy()); n != 2 {
		t.Fatalf("%d peers healthy after the first poll, want 2", n)
	}
	if err := ws[0].srv.Drain(); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	got, err := coord.Execute(ctx, req, 2)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("execute with a draining peer: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("result with a draining peer diverged\n got: %+v\nwant: %+v", got.Beam, want.Beam)
	}
	if n := shardCalls.Load(); n != 1 {
		t.Errorf("the draining peer got %d shard calls, want 1", n)
	}
	if elapsed >= 2*time.Second {
		t.Errorf("campaign took %v with a draining peer, want under 2s", elapsed)
	}
}

// TestRefusedForwardFailsOverAtOnce: a peer that answers a forwarded
// campaign with 429 and Retry-After costs one call. The coordinator
// moves on to the next-ranked node, here itself, without waiting out the
// hint.
func TestRefusedForwardFailsOverAtOnce(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var submissions atomic.Int64
	refusing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/readyz":
			_ = json.NewEncoder(w).Encode(server.ReadyzInfo{Status: "ready"})
		case "/v1/campaigns":
			submissions.Add(1)
			w.Header().Set("Retry-After", "2")
			http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(refusing.Close)

	// A one-shard campaign, so it routes whole, whose owner is the peer.
	var req *server.CampaignRequest
	for key := 0; req == nil; key++ {
		r, err := BenchCampaign(20)(key).Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if Rank(r.CacheKey(), []string{refusing.URL, LocalNode})[0] == refusing.URL {
			req = r
		}
	}
	want, err := server.Execute(ctx, req, 2)
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	coord := testCoordinator(ctx, t, []string{refusing.URL}, reg)
	start := time.Now()
	got, err := coord.Execute(ctx, req, 2)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("execute with a refusing owner: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("result with a refusing owner diverged\n got: %+v\nwant: %+v", got.Beam, want.Beam)
	}
	if n := submissions.Load(); n != 1 {
		t.Errorf("the refusing peer got %d submissions, want 1", n)
	}
	if elapsed >= 2*time.Second {
		t.Errorf("campaign took %v with a refusing owner, want under 2s", elapsed)
	}
	if n := reg.Counter("cluster.local_fallback").Value(); n != 1 {
		t.Errorf("cluster.local_fallback = %d, want 1", n)
	}
}

// TestNoPeersFallsBackLocal: a coordinator with an empty (or all-dead)
// fleet degrades to exactly the single-node executor.
func TestNoPeersFallsBackLocal(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := clusterReq(t, "XeonPhi", "ChipIR", 321)
	want, err := server.Execute(ctx, req, 2)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	coord := New(Config{Peers: nil, Registry: reg})
	got, err := coord.Execute(ctx, req, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("peerless coordinator result diverged from local execution")
	}
	if reg.Counter("cluster.local_fallback").Value() == 0 {
		t.Error("local fallback not recorded")
	}
}
