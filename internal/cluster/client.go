package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"neutronsim/internal/beam"
	"neutronsim/internal/server"
	"neutronsim/internal/telemetry/trace"
)

// Client speaks the neutrond peer protocol: shard-range execution over
// the internal POST /v1/shards surface and whole-campaign forwarding
// over the public submit-and-poll API. Each call is one HTTP attempt:
// a refused, failed or overlong call comes back as an error at once, and
// the coordinator's failover (re-dispatch of the range, or the next
// rendezvous-ranked node) handles it. Every call propagates the caller's
// W3C traceparent, so a fan-out is one trace.
type Client struct {
	http *http.Client
	// pollEvery paces job polling on the forward path.
	pollEvery time.Duration
}

// NewClient builds a peer client. A nil httpClient gets a default with a
// generous timeout, which is the one bound on a peer call: shard ranges
// are synchronous and compute-bound, so it must cover real work, not
// just network time.
func NewClient(httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 2 * time.Minute}
	}
	return &Client{http: httpClient, pollEvery: 10 * time.Millisecond}
}

// Reply ceilings: the client reads at most this much of a peer's reply.
const (
	// maxJobReply bounds the reply to a forwarded campaign and to a job
	// poll. Either is one result envelope or a JobInfo holding one; the
	// largest result, an assessment of all nine workloads, encodes to
	// about 8 KB, and a JobInfo's ids, stages and progress add under
	// 2 KB. 1 MiB is a hundredfold margin.
	maxJobReply = 1 << 20
	// maxReadyzReply bounds a /readyz body: a status word, two counts and
	// a flag, under 128 bytes.
	maxReadyzReply = 1 << 10
	// maxQuotedReply is how much of a peer's reply an error quotes.
	maxQuotedReply = 256
)

// maxShardReply bounds the reply to a range of n shards: n tallies of at
// most beam.MaxTallyJSON bytes, and 1 KiB for the envelope. A campaign
// has at most the server's ceiling of 65,536 shards, so the largest cap
// is 160 MiB and 1 KiB.
func maxShardReply(n int) int64 { return int64(n)*beam.MaxTallyJSON + 1<<10 }

// readReply reads a peer's reply body up to limit bytes. A longer body is
// a peer fault, like a dropped connection, so a re-dispatch of the range
// or the next-ranked node takes over.
func readReply(url string, body io.Reader, limit int64) ([]byte, error) {
	payload, err := io.ReadAll(io.LimitReader(body, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(payload)) > limit {
		return nil, fmt.Errorf("%s: reply exceeds %d bytes", url, limit)
	}
	return payload, nil
}

// quoteReply is the start of a peer's reply, for an error message.
func quoteReply(payload []byte) string {
	payload = bytes.TrimSpace(payload)
	if len(payload) > maxQuotedReply {
		return string(payload[:maxQuotedReply]) + "…"
	}
	return string(payload)
}

// post sends one JSON POST with traceparent propagation and reads at most
// limit bytes of the reply. A transport error or a longer reply is an
// error; the caller judges the status.
func (c *Client) post(ctx context.Context, url string, body any, limit int64) (int, http.Header, []byte, error) {
	blob, err := json.Marshal(body)
	if err != nil {
		return 0, nil, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(blob))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if sp := trace.FromContext(ctx); sp != nil {
		if tp := sp.Traceparent(); tp != "" {
			req.Header.Set(trace.Header, tp)
		}
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	payload, err := readReply(url, resp.Body, limit)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, payload, nil
}

// RunShardRange executes shards [lo, hi) of campaign on peer. Any status
// but 200 is a failure.
func (c *Client) RunShardRange(ctx context.Context, peer string, campaign *server.CampaignRequest, lo, hi int) (*beam.Partial, error) {
	status, _, payload, err := c.post(ctx, peer+"/v1/shards", server.ShardRequest{
		Campaign: campaign, Lo: lo, Hi: hi,
	}, maxShardReply(hi-lo))
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("cluster: %s/v1/shards [%d,%d): status %d: %s", peer, lo, hi, status, quoteReply(payload))
	}
	var out server.ShardResponse
	if err := json.Unmarshal(payload, &out); err != nil {
		return nil, fmt.Errorf("cluster: decode shard response: %w", err)
	}
	if out.Partial == nil {
		return nil, fmt.Errorf("cluster: %s returned empty shard response", peer)
	}
	return out.Partial, nil
}

// Serving tiers a forwarded campaign can be answered from, as reported
// in ForwardResult.Tier.
const (
	TierCache     = "cache"     // peer's exact result cache
	TierSurrogate = "surrogate" // peer's fitted approximate model
	TierExact     = "exact"     // fresh exact Monte Carlo job
)

// ForwardResult is a whole-campaign forward's outcome.
type ForwardResult struct {
	Envelope *server.ResultEnvelope
	// Tier is the serving tier that answered (TierCache, TierSurrogate
	// or TierExact), straight from the peer's X-Cache header.
	Tier string
}

// Forward submits campaign to peer and waits for the result, polling the
// job until terminal. A cached or surrogate-served answer returns
// immediately with its tier marked. Any status but 200 or 202 is a
// failure.
func (c *Client) Forward(ctx context.Context, peer string, campaign *server.CampaignRequest) (*ForwardResult, error) {
	status, hdr, payload, err := c.post(ctx, peer+"/v1/campaigns", campaign, maxJobReply)
	if err != nil {
		return nil, err
	}
	switch status {
	case http.StatusOK: // served without a job: cache hit or surrogate answer
		var env server.ResultEnvelope
		if err := json.Unmarshal(payload, &env); err != nil {
			return nil, fmt.Errorf("cluster: decode cached result: %w", err)
		}
		res := &ForwardResult{Envelope: &env, Tier: TierExact}
		switch hdr.Get("X-Cache") {
		case "hit":
			res.Tier = TierCache
		case "surrogate":
			res.Tier = TierSurrogate
		}
		return res, nil
	case http.StatusAccepted:
		var info server.JobInfo
		if err := json.Unmarshal(payload, &info); err != nil {
			return nil, fmt.Errorf("cluster: decode job info: %w", err)
		}
		return c.pollJob(ctx, peer, info.ID)
	default:
		return nil, fmt.Errorf("cluster: %s/v1/campaigns: status %d: %s", peer, status, quoteReply(payload))
	}
}

func (c *Client) pollJob(ctx context.Context, peer, id string) (*ForwardResult, error) {
	url := peer + "/v1/jobs/" + id
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return nil, err
		}
		resp, err := c.http.Do(req)
		if err != nil {
			return nil, err
		}
		payload, rerr := readReply(url, resp.Body, maxJobReply)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("cluster: poll %s: status %d: %s", url, resp.StatusCode, quoteReply(payload))
		}
		var info server.JobInfo
		if err := json.Unmarshal(payload, &info); err != nil {
			return nil, fmt.Errorf("cluster: decode job info: %w", err)
		}
		switch info.State {
		case server.StateDone:
			var env server.ResultEnvelope
			if err := json.Unmarshal(info.Result, &env); err != nil {
				return nil, fmt.Errorf("cluster: decode job result: %w", err)
			}
			return &ForwardResult{Envelope: &env, Tier: TierExact}, nil
		case server.StateFailed, server.StateCanceled:
			return nil, fmt.Errorf("cluster: job %s on %s %s: %s", id, peer, info.State, info.Error)
		}
		t := time.NewTimer(c.pollEvery)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		case <-t.C:
		}
	}
}
