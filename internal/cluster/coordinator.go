package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"neutronsim/internal/beam"
	"neutronsim/internal/server"
	"neutronsim/internal/telemetry"
	"neutronsim/internal/telemetry/trace"
)

// LocalNode is the rendezvous name the coordinator enters itself under,
// so HRW routing can keep a share of whole-job keys on the coordinator
// instead of always paying a network hop.
const LocalNode = "local"

// fanoutMinShards is the smallest beam plan worth fanning out: below it,
// dispatch overhead beats the parallelism and the campaign routes whole,
// by HRW, like non-beam kinds.
const fanoutMinShards = 8

// Config shapes a Coordinator.
type Config struct {
	// Peers are worker base URLs ("http://127.0.0.1:8441").
	Peers []string
	// Registry receives cluster telemetry (default telemetry.Default).
	Registry *telemetry.Registry
}

// Coordinator executes campaigns across a fleet of neutrond workers. Its
// Execute method matches server.Config.Execute, so plugging a Coordinator
// into a server turns that node into the cluster's front door while its
// own /v1/shards surface keeps serving ranges for other coordinators.
type Coordinator struct {
	cfg    Config
	peers  *PeerSet
	client *Client
	// Dispatch settings: New sets the values every coordinator uses, and
	// tests shorten the timings.
	//
	// rangesPerPeer sets work-pull granularity: the plan splits into about
	// rangesPerPeer ranges per executor (peers + local), so a slow or
	// dying peer strands at most one small range, not a static 1/N slice
	// of the campaign.
	rangesPerPeer int
	// healthInterval paces the background /readyz poller.
	healthInterval time.Duration
	// downCooldown keeps a peer that failed a dispatch out of rotation
	// until the poller can vouch for it again.
	downCooldown time.Duration
}

// New builds a Coordinator over cfg.Peers. Call Start to begin health
// polling; until the first poll completes no peer is considered healthy
// and everything runs locally.
func New(cfg Config) *Coordinator {
	if cfg.Registry == nil {
		cfg.Registry = telemetry.Default
	}
	return &Coordinator{
		cfg:            cfg,
		peers:          NewPeerSet(cfg.Peers),
		client:         NewClient(nil),
		rangesPerPeer:  2,
		healthInterval: time.Second,
		downCooldown:   2 * time.Second,
	}
}

// Peers exposes the health tracker (status surfaces, tests).
func (c *Coordinator) Peers() *PeerSet { return c.peers }

// Start runs one synchronous health poll, then keeps polling in the
// background until ctx is canceled.
func (c *Coordinator) Start(ctx context.Context) {
	c.peers.Poll(ctx)
	go c.peers.Run(ctx, c.healthInterval)
}

// Execute runs one campaign across the cluster; it is the value wired
// into server.Config.Execute on a coordinator node. Beam campaigns with
// enough shards fan out as ranges; everything else routes whole to its
// HRW owner. Every path falls back to local execution, so a coordinator
// with zero healthy peers behaves exactly like a single node.
func (c *Coordinator) Execute(ctx context.Context, req *server.CampaignRequest, shards int) (*server.ResultEnvelope, error) {
	healthy := c.peers.Healthy()
	if len(healthy) == 0 {
		c.cfg.Registry.Counter("cluster.local_fallback").Add(1)
		return server.Execute(ctx, req, shards)
	}
	if req.Kind == server.KindBeam {
		cfg, err := server.BeamConfig(req, shards)
		if err != nil {
			return nil, err
		}
		info, err := beam.PlanInfo(ctx, cfg)
		if err != nil {
			return nil, err
		}
		if info.Shards >= fanoutMinShards {
			res, err := c.fanout(ctx, req, cfg, info.Shards, healthy)
			if err != nil {
				return nil, err
			}
			return &server.ResultEnvelope{Kind: server.KindBeam, Beam: res}, nil
		}
	}
	return c.route(ctx, req, shards, healthy)
}

// rangeJob is one dispatchable shard range. Jobs live either in the todo
// channel or in exactly one worker's hands, so re-pushing a failed job
// never overflows the channel and no range can be delivered twice.
type rangeJob struct{ lo, hi int }

// fanout partitions [0, nShards) into contiguous ranges and lets
// executors pull them: one goroutine per healthy peer dispatching over
// /v1/shards, plus a local executor so the campaign finishes even if
// every peer dies mid-flight. A peer failure marks it down, returns its
// range to the pool, and retires that peer's goroutine; the deterministic
// shard plan makes the re-dispatch idempotent, and AssemblePartials would
// reject any double-delivery a bug let through.
func (c *Coordinator) fanout(ctx context.Context, req *server.CampaignRequest, cfg beam.Config, nShards int, healthy []string) (*beam.Result, error) {
	ctx, span := trace.StartChild(ctx, "cluster.fanout")
	span.SetStage("run")
	span.SetInt("shards", nShards)
	span.SetInt("peers", len(healthy))
	defer span.End()

	targetRanges := c.rangesPerPeer * (len(healthy) + 1)
	if targetRanges > nShards {
		targetRanges = nShards
	}
	per := (nShards + targetRanges - 1) / targetRanges
	var jobs []rangeJob
	for lo := 0; lo < nShards; lo += per {
		hi := lo + per
		if hi > nShards {
			hi = nShards
		}
		jobs = append(jobs, rangeJob{lo, hi})
	}
	todo := make(chan rangeJob, len(jobs))
	for _, j := range jobs {
		todo <- j
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		partials []*beam.Partial
		firstErr error
	)
	remaining := len(jobs)
	deliver := func(p *beam.Partial, err error) (done bool) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			cancel()
			return true
		}
		partials = append(partials, p)
		remaining--
		if remaining == 0 {
			close(todo)
			return true
		}
		return false
	}

	// pull blocks for the next job; ok=false means the campaign is done
	// (todo closed) or canceled. Workers never block on a bare channel
	// receive, so an error path that cancels without closing todo cannot
	// strand them.
	pull := func() (rangeJob, bool) {
		select {
		case <-runCtx.Done():
			return rangeJob{}, false
		case job, ok := <-todo:
			return job, ok
		}
	}
	var wg sync.WaitGroup
	for _, peer := range healthy {
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			for {
				job, ok := pull()
				if !ok {
					return
				}
				p, err := c.client.RunShardRange(runCtx, peer, req, job.lo, job.hi)
				if err != nil {
					if runCtx.Err() != nil {
						return
					}
					// Peer lost: hold it out of rotation, give the range
					// back (capacity len(jobs) guarantees space — the job
					// was just removed), and retire this peer for the
					// campaign.
					c.cfg.Registry.Counter("cluster.ranges_redispatched").Add(1)
					telemetry.Log().Warn("shard range re-dispatched",
						"peer", peer, "range", fmt.Sprintf("[%d,%d)", job.lo, job.hi), "error", err)
					c.peers.MarkDown(peer, c.downCooldown)
					todo <- job
					return
				}
				c.cfg.Registry.Counter("cluster.ranges_dispatched").Add(1)
				if deliver(p, nil) {
					return
				}
			}
		}(peer)
	}
	// Local executor: the liveness guarantee. It pulls like any peer, so
	// with fast peers it handles little, and with no peers it handles all.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			job, ok := pull()
			if !ok {
				return
			}
			p, err := beam.RunRange(runCtx, cfg, job.lo, job.hi)
			if err != nil {
				if runCtx.Err() == nil {
					deliver(nil, fmt.Errorf("cluster: local range [%d,%d): %w", job.lo, job.hi, err))
				}
				return
			}
			c.cfg.Registry.Counter("cluster.ranges_local").Add(1)
			if deliver(p, nil) {
				return
			}
		}
	}()
	wg.Wait()

	mu.Lock()
	err := firstErr
	got := partials
	mu.Unlock()
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return beam.AssemblePartials(ctx, cfg, got)
}

// route sends a whole campaign to its rendezvous owner. The node list is
// healthy peers plus this node, so every coordinator with the same view
// of the fleet routes a key identically — that agreement is what shards
// the fleet's plan and result caches by key. Owner down → next in rank;
// all down → local.
func (c *Coordinator) route(ctx context.Context, req *server.CampaignRequest, shards int, healthy []string) (*server.ResultEnvelope, error) {
	key := req.CacheKey()
	nodes := append(append([]string(nil), healthy...), LocalNode)
	for _, node := range Rank(key, nodes) {
		if node == LocalNode {
			break
		}
		res, err := c.client.Forward(ctx, node, req)
		if err == nil {
			c.cfg.Registry.Counter("cluster.jobs_forwarded").Add(1)
			if res.Tier == TierCache {
				c.cfg.Registry.Counter("cluster.forward_cache_hits").Add(1)
			}
			return res.Envelope, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		telemetry.Log().Warn("forward failed; trying next in rank", "peer", node, "error", err)
		c.peers.MarkDown(node, c.downCooldown)
	}
	c.cfg.Registry.Counter("cluster.local_fallback").Add(1)
	return server.Execute(ctx, req, shards)
}
