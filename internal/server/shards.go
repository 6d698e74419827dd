package server

import (
	"errors"
	"net/http"
	"time"

	"neutronsim/internal/beam"
	"neutronsim/internal/telemetry/trace"
)

// ShardRequest is the body of POST /v1/shards — the internal peer surface
// of cluster mode (DESIGN.md §15). A coordinator sends a normalized
// campaign plus a half-open shard range; the worker executes exactly
// those shards of the campaign's deterministic plan and returns their
// per-shard tallies. Ranges are idempotent — re-dispatching one after a
// timeout or worker loss can only reproduce identical tallies — which is
// what makes the coordinator's failure handling safe.
type ShardRequest struct {
	Campaign *CampaignRequest `json:"campaign"`
	Lo       int              `json:"lo"`
	Hi       int              `json:"hi"`
}

// ShardResponse is the POST /v1/shards body.
type ShardResponse struct {
	Partial *beam.Partial `json:"partial"`
}

// handleShards is POST /v1/shards: synchronous shard-range execution.
//
//	200  partial result (body ShardResponse)
//	400  malformed request, non-beam campaign, or range outside the plan
//	413  body over maxBodyBytes
//	503  draining (Retry-After set)
//
// Concurrency is bounded by Config.ShardSlots; excess requests wait in
// the handler until a slot frees or the client gives up, so a saturated
// worker exerts backpressure through latency rather than queue growth
// (the coordinator's client timeout and re-dispatch handle the rest).
// The endpoint always executes locally — never through Config.Execute —
// so a coordinator receiving a range does not recurse into its own
// fan-out.
func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.unavailable(w)
		return
	}
	var raw ShardRequest
	if !decodeBody(w, r, &raw) {
		return
	}
	if raw.Campaign == nil {
		writeError(w, http.StatusBadRequest, "shard request missing campaign")
		return
	}
	req, err := raw.Campaign.Normalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid campaign: %v", err)
		return
	}
	if req.Kind != KindBeam {
		writeError(w, http.StatusBadRequest, "shard-range execution supports beam campaigns, got kind %q", req.Kind)
		return
	}
	if raw.Lo < 0 || raw.Hi <= raw.Lo {
		writeError(w, http.StatusBadRequest, "invalid shard range [%d,%d)", raw.Lo, raw.Hi)
		return
	}
	ctx := r.Context()
	select {
	case s.shardSem <- struct{}{}:
		defer func() { <-s.shardSem }()
	case <-ctx.Done():
		return // client gave up while waiting for a slot
	}
	// Join the coordinator's trace so one trace spans coordinator queue →
	// peer dispatch → shard execution → merge.
	var parent *trace.Traceparent
	if tp, perr := trace.ParseTraceparent(r.Header.Get(trace.Header)); perr == nil {
		parent = &tp
	}
	tr, root := trace.New("shards", parent)
	tr.SetRecorder(trace.Default)
	root.SetAttr("kind", req.Kind)
	defer root.End()
	ctx = trace.NewContext(ctx, root)

	cfg, err := BeamConfig(req, s.cfg.JobShards)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid campaign: %v", err)
		return
	}
	s.cfg.Registry.Counter("server.shard_ranges").Add(1)
	start := time.Now()
	partial, err := beam.RunRange(ctx, cfg, raw.Lo, raw.Hi)
	s.cfg.Registry.Histogram("server.shard_range_seconds").ObserveSince(start)
	if err != nil {
		if errors.Is(err, ctx.Err()) {
			return // canceled by the coordinator; nothing to say
		}
		s.cfg.Registry.Counter("server.shard_range_errors").Add(1)
		writeError(w, http.StatusBadRequest, "shard range %d-%d: %v", raw.Lo, raw.Hi, err)
		return
	}
	if tp := root.Traceparent(); tp != "" {
		w.Header().Set(trace.Header, tp)
	}
	writeJSON(w, http.StatusOK, ShardResponse{Partial: partial})
}
