// Command neutrond serves the simulators over HTTP: POST a campaign, poll
// or stream its progress, and let the deterministic result cache answer
// repeated requests instantly (identical normalized requests are the same
// campaign; see DESIGN.md §10).
//
// Usage:
//
//	neutrond [-addr 127.0.0.1:8791] [-queue 64] [-job-workers 2]
//	         [-job-shards N] [-shard-slots N] [-cache-entries 256] [-cache-mb 64]
//	         [-plan-cache-entries 64] [-job-timeout 10m] [-drain-timeout 30s]
//	         [-role worker|coordinator] [-peers url,url,...]
//	         [-surrogate model.json]
//
// -surrogate loads a fitted design-space model (train one with
// sweep -surrogate-out) and enables the approximate serving tier
// (DESIGN.md §17): xsection campaigns carrying a positive tolerance that
// the model's certified error bound satisfies are answered in O(µs) with
// approx: true; everything else runs exact Monte Carlo unchanged.
//
// Cluster mode (DESIGN.md §15): every neutrond is a worker — its
// POST /v1/shards surface executes shard ranges for any coordinator.
// Starting with -role coordinator -peers <urls> additionally fans beam
// campaigns out across the peer fleet and routes other jobs to their
// rendezvous owner, with results bit-identical to single-node runs.
//
// On SIGINT/SIGTERM the server drains: intake answers 503, in-flight jobs
// get -drain-timeout to finish before being canceled, and the final
// Prometheus exposition of /metrics (-metrics-out) is written on exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"neutronsim/internal/cluster"
	"neutronsim/internal/plan"
	"neutronsim/internal/server"
	"neutronsim/internal/surrogate"
	"neutronsim/internal/telemetry"
)

// splitPeers parses the -peers list, dropping empties so trailing commas
// are harmless.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, strings.TrimRight(p, "/"))
		}
	}
	return out
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		telemetry.Log().Error("neutrond: fatal", "error", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("neutrond", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8791", "listen address (port 0 picks a free port)")
	queue := fs.Int("queue", 64, "queued-job bound; a full queue answers 429")
	jobWorkers := fs.Int("job-workers", 2, "concurrent jobs")
	jobShards := fs.Int("job-shards", 0, "per-job engine shard workers (0 = GOMAXPROCS; never affects results)")
	cacheEntries := fs.Int("cache-entries", 256, "result cache entry bound")
	cacheMB := fs.Int("cache-mb", 64, "result cache size bound in MiB")
	planEntries := fs.Int("plan-cache-entries", plan.DefaultCapacity, "compiled campaign-plan cache entry bound (shared across the worker pool)")
	jobTimeout := fs.Duration("job-timeout", 10*time.Minute, "per-job deadline (negative disables)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long in-flight jobs may finish after SIGTERM")
	shardSlots := fs.Int("shard-slots", 0, "concurrent POST /v1/shards executions (0 = GOMAXPROCS; never affects results)")
	role := fs.String("role", "worker", "cluster role: worker (serve shard ranges) or coordinator (also fan campaigns out to -peers)")
	peers := fs.String("peers", "", "comma-separated peer base URLs for -role coordinator (e.g. http://127.0.0.1:8441,http://127.0.0.1:8442)")
	surrogatePath := fs.String("surrogate", "", "fitted surrogate model (JSON) enabling the approximate xsection serving tier")
	obs := telemetry.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := obs.Start("neutrond"); err != nil {
		return err
	}
	defer obs.Close()
	plan.Shared.SetCapacity(*planEntries)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := server.Config{
		Addr:         *addr,
		QueueDepth:   *queue,
		Workers:      *jobWorkers,
		JobShards:    *jobShards,
		ShardSlots:   *shardSlots,
		CacheEntries: *cacheEntries,
		CacheBytes:   int64(*cacheMB) << 20,
		JobTimeout:   *jobTimeout,
		DrainTimeout: *drainTimeout,
	}
	if *surrogatePath != "" {
		m, err := surrogate.Load(*surrogatePath)
		if err != nil {
			return err
		}
		cfg.Surrogate = m
		telemetry.Log().Info("surrogate tier enabled",
			"model", m.Hash[:12], "certified_rel_err", m.CertifiedRelErr)
	}
	switch *role {
	case "worker":
	case "coordinator":
		peerList := splitPeers(*peers)
		if len(peerList) == 0 {
			return fmt.Errorf("role coordinator requires -peers")
		}
		coord := cluster.New(cluster.Config{Peers: peerList})
		coord.Start(ctx)
		cfg.Execute = coord.Execute
		telemetry.Log().Info("coordinating", "peers", peerList)
	default:
		return fmt.Errorf("unknown -role %q (worker or coordinator)", *role)
	}
	srv := server.New(cfg)
	if err := srv.Start(); err != nil {
		return err
	}
	log := telemetry.Log()
	log.Info("listening", "url", "http://"+srv.Addr())
	<-ctx.Done()
	log.Info("draining")
	if err := srv.Drain(); err != nil {
		return err
	}
	log.Info("drained cleanly")
	return obs.Close()
}
