package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"neutronsim/internal/beam"
	"neutronsim/internal/server"
	"neutronsim/internal/telemetry/trace"
)

// Client speaks the neutrond peer protocol: shard-range execution over
// the internal POST /v1/shards surface and whole-campaign forwarding
// over the public submit-and-poll API. All calls retry transient
// failures with exponential backoff and full jitter, honor Retry-After,
// and propagate the caller's W3C traceparent so a fan-out is one trace.
type Client struct {
	http *http.Client
	// retries is the number of attempts per call (default 3).
	retries int
	// backoff is the base delay; attempt n sleeps rand[0, backoff*2^n)
	// (full jitter), clamped by maxBackoff.
	backoff    time.Duration
	maxBackoff time.Duration
	// pollEvery paces job polling on the forward path.
	pollEvery time.Duration
}

// NewClient builds a peer client. A nil httpClient gets a default with a
// generous timeout — shard ranges are synchronous and compute-bound, so
// the per-request timeout must cover real work, not just network time.
func NewClient(httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 2 * time.Minute}
	}
	return &Client{
		http:       httpClient,
		retries:    3,
		backoff:    50 * time.Millisecond,
		maxBackoff: 2 * time.Second,
		pollEvery:  10 * time.Millisecond,
	}
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
// a peer fault, like a dropped connection: transient, so a retry, a
// re-dispatch of the range or the next-ranked node takes over.
func readReply(url string, body io.Reader, limit int64) ([]byte, error) {
	payload, err := io.ReadAll(io.LimitReader(body, limit+1))
	if err != nil {
		return nil, &transientError{err: err}
	}
	if int64(len(payload)) > limit {
		return nil, &transientError{err: fmt.Errorf("%s: reply exceeds %d bytes", url, limit)}
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

// transientError marks failures worth retrying against the same peer.
type transientError struct {
	err        error
	retryAfter time.Duration // from Retry-After, 0 when absent
}

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// sleepBeforeRetry waits the backoff for attempt (0-based), preferring
// the server's Retry-After hint when it is longer. Full jitter — a
// uniform draw over [0, cap) rather than cap itself — keeps N clients
// rejected together from retrying together.
func (c *Client) sleepBeforeRetry(ctx context.Context, attempt int, hint time.Duration) error {
	d := c.backoff << attempt
	if d > c.maxBackoff {
		d = c.maxBackoff
	}
	d = time.Duration(rand.Int63n(int64(d) + 1))
	if hint > d {
		d = hint
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// post sends one JSON POST with traceparent propagation and reads at most
// limit bytes of the reply. A 429/503 answer, a transport error or a
// longer reply returns *transientError; other non-2xx statuses are
// permanent (the request itself is bad — retrying cannot help, and the
// coordinator should fail fast, not mask a protocol bug).
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
		return 0, nil, nil, &transientError{err: err}
	}
	defer resp.Body.Close()
	payload, err := readReply(url, resp.Body, limit)
	if err != nil {
		return 0, nil, nil, err
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		hint := time.Duration(0)
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, perr := strconv.Atoi(s); perr == nil && secs > 0 {
				hint = time.Duration(secs) * time.Second
			}
		}
		return resp.StatusCode, resp.Header, payload, &transientError{
			err:        fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, quoteReply(payload)),
			retryAfter: hint,
		}
	}
	return resp.StatusCode, resp.Header, payload, nil
}

// postRetry runs post with the retry policy.
func (c *Client) postRetry(ctx context.Context, url string, body any, limit int64) (int, http.Header, []byte, error) {
	var lastErr error
	for attempt := 0; attempt < c.retries; attempt++ {
		status, hdr, payload, err := c.post(ctx, url, body, limit)
		if err == nil {
			return status, hdr, payload, nil
		}
		te, transient := err.(*transientError)
		if !transient || ctx.Err() != nil {
			return status, hdr, payload, err
		}
		lastErr = err
		if attempt+1 < c.retries {
			hint := te.retryAfter
			if serr := c.sleepBeforeRetry(ctx, attempt, hint); serr != nil {
				return 0, nil, nil, serr
			}
		}
	}
	return 0, nil, nil, fmt.Errorf("cluster: %d attempts failed: %w", c.retries, lastErr)
}

// RunShardRange executes shards [lo, hi) of campaign on peer.
func (c *Client) RunShardRange(ctx context.Context, peer string, campaign *server.CampaignRequest, lo, hi int) (*beam.Partial, error) {
	status, _, payload, err := c.postRetry(ctx, peer+"/v1/shards", server.ShardRequest{
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
// immediately with its tier marked.
func (c *Client) Forward(ctx context.Context, peer string, campaign *server.CampaignRequest) (*ForwardResult, error) {
	status, hdr, payload, err := c.postRetry(ctx, peer+"/v1/campaigns", campaign, maxJobReply)
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
			return nil, &transientError{err: err}
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
