package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"neutronsim/internal/surrogate"
	"neutronsim/internal/telemetry"
	"neutronsim/internal/telemetry/trace"
)

// Config sizes the service. The zero value gets sensible defaults from
// New.
type Config struct {
	// Addr is the listen address for Start/Run (default "127.0.0.1:0").
	Addr string
	// QueueDepth bounds how many jobs may wait beyond the ones running
	// (default 64). A full queue answers 429 with Retry-After.
	QueueDepth int
	// Workers is the number of concurrent jobs (default 2).
	Workers int
	// JobShards caps each job's engine concurrency (default GOMAXPROCS).
	// Like every shard-worker knob, it never affects results.
	JobShards int
	// CacheEntries / CacheBytes bound the result cache (defaults 256
	// entries, 64 MiB).
	CacheEntries int
	CacheBytes   int64
	// JobTimeout is the per-job deadline (default 10m; negative disables).
	JobTimeout time.Duration
	// DrainTimeout bounds how long Run waits for in-flight jobs after its
	// context is canceled before canceling them (default 30s).
	DrainTimeout time.Duration
	// ShardSlots bounds concurrent POST /v1/shards executions — the
	// synchronous worker surface of cluster mode (default GOMAXPROCS).
	// Like every worker knob it never affects results.
	ShardSlots int
	// Execute overrides how jobs run (default Execute, the local library
	// call). Cluster coordinators inject their fan-out executor here;
	// POST /v1/shards always uses the local executor regardless, so a
	// coordinator asked to run a shard range never recurses.
	Execute func(ctx context.Context, req *CampaignRequest, shards int) (*ResultEnvelope, error)
	// Registry receives the service's telemetry (default telemetry.Default).
	Registry *telemetry.Registry
	// Surrogate enables the approximate serving tier between the result
	// cache and exact Monte Carlo: xsection requests carrying a positive
	// tolerance that lands inside the model's trained hull and certified
	// error bound are answered from the fitted model in O(µs) with
	// approx: true. Nil (the default) disables the tier; every request
	// then runs exact MC. Load a model with surrogate.Load, which
	// verifies its content hash.
	Surrogate *surrogate.Model
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = 10 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.ShardSlots <= 0 {
		c.ShardSlots = runtime.GOMAXPROCS(0)
	}
	if c.Execute == nil {
		c.Execute = Execute
	}
	if c.Registry == nil {
		c.Registry = telemetry.Default
	}
	return c
}

const (
	// retryAfter is the Retry-After hint, in seconds, of every 429 and
	// 503, for external clients. A cluster coordinator does not wait on
	// it: it fails over to another node at once.
	retryAfter = "2"
	// maxJobRecords bounds retained job records; the oldest terminal jobs
	// are forgotten beyond it.
	maxJobRecords = 1024
	// sseHeartbeat is the idle interval between comment frames on the
	// /v1/jobs/{id}/events stream, keeping proxies from timing out a quiet
	// connection.
	sseHeartbeat = 15 * time.Second
)

// Server is the neutrond campaign service.
type Server struct {
	cfg       Config
	mux       *http.ServeMux
	cache     *Cache
	surrogate *surrogateTier // nil when no model is loaded

	queue chan *Job
	quit  chan struct{} // closed at drain: workers stop pulling
	// shardSem bounds concurrent /v1/shards executions (cluster worker
	// surface); acquired per request, released when the range finishes.
	shardSem chan struct{}

	mu       sync.Mutex
	byID     map[string]*Job
	order    []string        // job insertion order, for record eviction
	inflight map[string]*Job // cache key → queued/running job (coalescing)

	nextID   atomic.Int64
	draining atomic.Bool

	// runCtx parents every job context. It is canceled only when the
	// drain deadline expires (or the server is force-stopped), never by
	// the signal that starts the drain — in-flight jobs get their chance
	// to finish.
	runCtx    context.Context
	runCancel context.CancelFunc
	workerWG  sync.WaitGroup

	listener net.Listener
	httpSrv  *http.Server

	// maxJobs and heartbeat are maxJobRecords and sseHeartbeat; tests
	// shrink them.
	maxJobs   int
	heartbeat time.Duration

	jobsRunning *telemetry.Gauge
	queueDepth  *telemetry.Gauge
}

// New builds a Server and starts its worker pool. Callers that only need
// the HTTP surface (tests) use Handler; Run adds the listener and drain
// lifecycle.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		cache:     NewCache(cfg.CacheEntries, cfg.CacheBytes, cfg.Registry),
		surrogate: newSurrogateTier(cfg.Surrogate, cfg.Registry),
		queue:     make(chan *Job, cfg.QueueDepth),
		quit:      make(chan struct{}),
		shardSem:  make(chan struct{}, cfg.ShardSlots),
		byID:      map[string]*Job{},
		inflight:  map[string]*Job{},
		maxJobs:   maxJobRecords,
		heartbeat: sseHeartbeat,
	}
	s.runCtx, s.runCancel = context.WithCancel(context.Background())
	s.jobsRunning = cfg.Registry.Gauge("server.jobs_running")
	s.queueDepth = cfg.Registry.Gauge("server.queue_depth")
	s.mux = http.NewServeMux()
	s.routes()
	for i := 0; i < cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Addr returns the bound listen address after Start.
func (s *Server) Addr() string {
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// Start binds the configured address and begins serving in the
// background. It returns once the listener is bound, so Addr is valid.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.listener = ln
	s.httpSrv = &http.Server{Handler: s.mux}
	go func() {
		if err := s.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			telemetry.Count("server.serve_errors", 1)
		}
	}()
	return nil
}

// Drain performs the graceful-shutdown sequence. It is safe to call once.
func (s *Server) Drain() error {
	s.draining.Store(true)
	// Lock barrier: any submit that read draining == false holds s.mu
	// through its enqueue, so after this round-trip no new job can land
	// in the queue.
	s.mu.Lock()
	s.mu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	close(s.quit)
	// Flush jobs still waiting in the queue: intake has stopped, so they
	// would otherwise sit queued forever if the workers exit first.
	s.flushQueue()
	workersDone := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(workersDone)
	}()
	timedOut := false
	select {
	case <-workersDone:
	case <-time.After(s.cfg.DrainTimeout):
		timedOut = true
		s.runCancel() // cancel in-flight jobs at the next shard boundary
		<-workersDone
	}
	s.runCancel()
	// Workers are gone; anything they pulled-then-requeued or that raced
	// past the first flush is settled now.
	s.flushQueue()
	if s.httpSrv != nil {
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.httpSrv.Shutdown(shutCtx); err != nil {
			return err
		}
	}
	if timedOut {
		return fmt.Errorf("server: drain deadline exceeded after %v; in-flight jobs canceled", s.cfg.DrainTimeout)
	}
	return nil
}

// flushQueue drains the queue channel, settling each waiting job as
// canceled.
func (s *Server) flushQueue() {
	for {
		select {
		case j := <-s.queue:
			s.queueDepth.Add(-1)
			if j.finish(StateCanceled, nil, "", "server draining") {
				s.cfg.Registry.Counter("server.jobs_canceled").Add(1)
				s.clearInflight(j)
			}
		default:
			return
		}
	}
}

// worker pulls jobs until drain.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for {
		select {
		case <-s.quit:
			return
		case j := <-s.queue:
			s.queueDepth.Add(-1)
			s.runJob(j)
		}
	}
}

// runJob executes one job and settles its terminal state, cache entry and
// telemetry.
func (s *Server) runJob(j *Job) {
	ctx := s.runCtx
	var cancel context.CancelFunc
	if s.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	if !j.markRunning(cancel) {
		s.clearInflight(j) // canceled while queued
		return
	}
	s.jobsRunning.Add(1)
	defer s.jobsRunning.Add(-1)
	start := time.Now()
	ctx = telemetry.ContextWithProgress(ctx, j.observe)
	// Parent the campaign's trace spans under the job's root span so
	// the whole pipeline — plan lookup, engine shards, merge — lands in the
	// job's trace tree.
	ctx = trace.NewContext(ctx, j.root)
	log := telemetry.LogWith(ctx).With("job_id", j.ID, "kind", j.Req.Kind)
	log.Info("job started")
	env, err := s.cfg.Execute(ctx, j.Req, s.cfg.JobShards)
	s.cfg.Registry.Histogram("server.job_seconds").ObserveSince(start)
	switch {
	case err == nil:
		body, merr := json.Marshal(env)
		if merr != nil {
			j.finish(StateFailed, nil, "", fmt.Sprintf("marshal result: %v", merr))
			s.cfg.Registry.Counter("server.jobs_failed").Add(1)
			break
		}
		etag := s.cache.Put(j.Key, body)
		j.finish(StateDone, body, etag, "")
		s.cfg.Registry.Counter("server.jobs_completed").Add(1)
	case errors.Is(err, context.Canceled):
		j.finish(StateCanceled, nil, "", err.Error())
		s.cfg.Registry.Counter("server.jobs_canceled").Add(1)
	case errors.Is(err, context.DeadlineExceeded):
		j.finish(StateFailed, nil, "", fmt.Sprintf("job deadline exceeded: %v", err))
		s.cfg.Registry.Counter("server.jobs_failed").Add(1)
	default:
		j.finish(StateFailed, nil, "", err.Error())
		s.cfg.Registry.Counter("server.jobs_failed").Add(1)
	}
	s.clearInflight(j)
	if state := j.State(); state == StateDone {
		log.Info("job finished", "state", state, "seconds", time.Since(start).Seconds())
	} else {
		log.Warn("job finished", "state", state, "seconds", time.Since(start).Seconds(), "error", err)
	}
}

// errDraining rejects submissions during shutdown.
var errDraining = errors.New("server is draining")

// submit enqueues a normalized request, coalescing with any identical
// queued/running job. It returns the job and whether it was coalesced;
// a nil job means the queue is full. The draining check happens under
// the same lock the enqueue does, so Drain's lock barrier guarantees no
// job lands in the queue after the final flush.
func (s *Server) submit(req *CampaignRequest, key string, parent *trace.Traceparent) (j *Job, coalesced bool, err error) {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		return nil, false, errDraining
	}
	if existing, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		return existing, true, nil
	}
	id := fmt.Sprintf("j-%06d", s.nextID.Add(1))
	j = newJob(id, req, key, parent)
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		return nil, false, nil
	}
	s.queueDepth.Add(1)
	s.inflight[key] = j
	s.byID[id] = j
	s.order = append(s.order, id)
	s.evictOldRecordsLocked()
	s.mu.Unlock()
	s.cfg.Registry.Counter("server.jobs_submitted").Add(1)
	return j, false, nil
}

// evictOldRecordsLocked forgets the oldest terminal job records beyond
// maxJobs. Queued/running jobs are never evicted.
func (s *Server) evictOldRecordsLocked() {
	for len(s.byID) > s.maxJobs {
		evicted := false
		for i, id := range s.order {
			j, ok := s.byID[id]
			if !ok {
				continue
			}
			switch j.State() {
			case StateDone, StateFailed, StateCanceled:
				delete(s.byID, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
			}
			if evicted {
				break
			}
		}
		if !evicted {
			return // everything live; keep the records
		}
	}
}

// jobOr404 looks up the job a /v1/jobs/{id} route names. When there is
// none, it answers 404, quoting the id clipped, and returns nil.
func (s *Server) jobOr404(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.byID[id]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", clip(id))
	}
	return j
}

// clearInflight removes the job from the coalescing map once terminal.
func (s *Server) clearInflight(j *Job) {
	s.mu.Lock()
	if s.inflight[j.Key] == j {
		delete(s.inflight, j.Key)
	}
	s.mu.Unlock()
}
