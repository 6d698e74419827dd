package cluster

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"time"

	"neutronsim/internal/server"
	"neutronsim/internal/telemetry"
)

// The single-node vs cluster comparison. The fleet's advantage on this
// machine is aggregate cache capacity, not CPU count: every node shares
// the same cores, so fanning compute out buys nothing, but HRW routing
// shards the key space across per-worker result caches. The bench
// therefore picks more keys than one node's cache holds (the single node
// thrashes and recomputes) but fewer than the fleet's combined capacity
// (each worker's key shard fits, so steady state answers from cache). The
// headline number is the saturation throughput ratio at equal offered
// load, under a uniform key distribution, the worst case for a single
// small cache.
const (
	benchWorkers = 3  // fleet size behind the coordinator
	benchKeys    = 45 // distinct-campaign key space
	// benchCacheEntries bounds every node's result cache: one node holds
	// 16/45 of the keys, the 3-worker fleet all of them.
	benchCacheEntries = 16
	benchConcurrency  = 8 // the loadgen's closed-loop in-flight requests
	// benchCampaignSeconds sizes each key's compute so a recompute visibly
	// outweighs a forwarded cache hit: 2M runs, at least 10 ms of CPU per
	// miss on one core.
	benchCampaignSeconds = 20000
)

// BenchReport is the outcome of one single-node vs cluster comparison.
type BenchReport struct {
	// IdentityBitExact is the conformance gate: a fanned-out and a
	// whole-routed campaign both DeepEqual the direct library result.
	IdentityBitExact bool

	SingleNode *Report
	Cluster    *Report

	// SaturationSpeedup is Cluster.Throughput / SingleNode.Throughput.
	SaturationSpeedup float64
}

// BenchCampaign maps key → request for the storm: campaigns whose cache
// keys differ by seed while their compute cost does not. The coarse
// ShardGrain (2¹⁹ runs, 4 shards at benchCampaignSeconds) keeps the plan
// under the coordinator's fan-out threshold, so storms exercise HRW
// whole-job routing — the cache-sharding path the bench is about.
func BenchCampaign(seconds float64) func(int) *server.CampaignRequest {
	return func(key int) *server.CampaignRequest {
		return &server.CampaignRequest{
			Kind: server.KindBeam,
			Seed: uint64(9000 + key),
			Beam: &server.BeamParams{
				Device:          "K20",
				Workload:        "MxM",
				Spectrum:        "ChipIR",
				DurationSeconds: seconds,
				RunSeconds:      0.01,
				CalSamples:      2000,
				ShardGrain:      1 << 19,
			},
		}
	}
}

// benchServer builds one node with the bench's deliberately small result
// cache.
func benchServer(entries int) (*server.Server, *httptest.Server) {
	srv := server.New(server.Config{
		Workers:      8,
		CacheEntries: entries,
		Registry:     telemetry.NewRegistry(),
	})
	return srv, httptest.NewServer(srv.Handler())
}

// checkIdentity compares coordinator execution to the direct library
// call on both coordinator paths: shard-range fan-out and HRW whole-job
// routing.
func checkIdentity(ctx context.Context, coord *Coordinator) (bool, error) {
	fanReq, err := (&server.CampaignRequest{
		Kind: server.KindBeam,
		Seed: 8801,
		Beam: &server.BeamParams{
			Device: "K20", Workload: "MxM", Spectrum: "ROTAX",
			DurationSeconds: 20, RunSeconds: 0.01, CalSamples: 2000, ShardGrain: 32,
		},
	}).Normalize()
	if err != nil {
		return false, err
	}
	routeReq, err := BenchCampaign(20)(1).Normalize()
	if err != nil {
		return false, err
	}
	for _, req := range []*server.CampaignRequest{fanReq, routeReq} {
		want, err := server.Execute(ctx, req, 0)
		if err != nil {
			return false, err
		}
		got, err := coord.Execute(ctx, req, 0)
		if err != nil {
			return false, err
		}
		if !reflect.DeepEqual(got, want) {
			return false, nil
		}
	}
	return true, nil
}

// warm touches every key once so the measured storms compare steady
// states: compiled plans are shared process-wide either way, and each
// topology's result caches hold whatever their capacity can.
func warm(ctx context.Context, target string, keys int, campaign func(int) *server.CampaignRequest) error {
	client := NewClient(nil)
	client.pollEvery = 2 * time.Millisecond
	for k := 0; k < keys; k++ {
		if _, err := client.Forward(ctx, target, campaign(k)); err != nil {
			return fmt.Errorf("warm key %d: %w", k, err)
		}
	}
	return nil
}

// CompareBench runs the two topologies under the same storm, each storm
// lasting the given duration, and reports.
func CompareBench(ctx context.Context, storm time.Duration) (*BenchReport, error) {
	campaign := BenchCampaign(benchCampaignSeconds)

	// Single node: one server, one small cache.
	_, singleTS := benchServer(benchCacheEntries)
	defer singleTS.Close()

	// Cluster: coordinator in front of benchWorkers nodes, same cache size
	// everywhere.
	var peerURLs []string
	for i := 0; i < benchWorkers; i++ {
		_, ts := benchServer(benchCacheEntries)
		defer ts.Close()
		peerURLs = append(peerURLs, ts.URL)
	}
	coordCtx, stopCoord := context.WithCancel(ctx)
	defer stopCoord()
	coord := New(Config{
		Peers:          peerURLs,
		HealthInterval: 250 * time.Millisecond,
		Registry:       telemetry.NewRegistry(),
	})
	coord.Start(coordCtx)
	if len(coord.Peers().Healthy()) != benchWorkers {
		return nil, fmt.Errorf("only %d/%d workers healthy", len(coord.Peers().Healthy()), benchWorkers)
	}
	coordSrv := server.New(server.Config{
		Workers:      8,
		CacheEntries: benchCacheEntries,
		Execute:      coord.Execute,
		Registry:     telemetry.NewRegistry(),
	})
	coordTS := httptest.NewServer(coordSrv.Handler())
	defer coordTS.Close()

	identity, err := checkIdentity(ctx, coord)
	if err != nil {
		return nil, fmt.Errorf("identity check: %w", err)
	}

	if err := warm(ctx, singleTS.URL, benchKeys, campaign); err != nil {
		return nil, err
	}
	if err := warm(ctx, coordTS.URL, benchKeys, campaign); err != nil {
		return nil, err
	}

	load := func(target string) (*Report, error) {
		return RunLoad(ctx, LoadConfig{
			Target:       target,
			Concurrency:  benchConcurrency,
			Duration:     storm,
			Keys:         benchKeys,
			Distribution: "uniform",
			Seed:         12345,
			Campaign:     campaign,
		})
	}
	single, err := load(singleTS.URL)
	if err != nil {
		return nil, fmt.Errorf("single-node storm: %w", err)
	}
	clustered, err := load(coordTS.URL)
	if err != nil {
		return nil, fmt.Errorf("cluster storm: %w", err)
	}

	rep := &BenchReport{
		IdentityBitExact: identity,
		SingleNode:       single,
		Cluster:          clustered,
	}
	if single.Throughput > 0 {
		rep.SaturationSpeedup = clustered.Throughput / single.Throughput
	}
	return rep, nil
}
