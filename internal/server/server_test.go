package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"neutronsim/internal/telemetry"
)

// testRequest returns a valid small beam request; vary seed for distinct
// cache keys.
func testRequest(seed uint64) *CampaignRequest {
	return &CampaignRequest{Kind: KindBeam, Seed: seed, Beam: &BeamParams{
		Device: "K20", Workload: "MxM", Spectrum: "ChipIR", DurationSeconds: 1,
	}}
}

// blockingExec returns an execute override that signals each start on
// started and blocks until release is closed (or the job ctx ends, which
// it reports as the ctx error).
func blockingExec(started chan<- string, release <-chan struct{}) func(ctx context.Context, req *CampaignRequest, shards int) (*ResultEnvelope, error) {
	return func(ctx context.Context, req *CampaignRequest, _ int) (*ResultEnvelope, error) {
		if started != nil {
			started <- req.CacheKey()
		}
		select {
		case <-release:
			return &ResultEnvelope{Kind: req.Kind}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func TestQueueBackpressure(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := New(Config{Workers: 1, QueueDepth: 1, Registry: reg})
	defer srv.Drain()
	started := make(chan string, 4)
	release := make(chan struct{})
	srv.execute = blockingExec(started, release)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// First job occupies the worker, second fills the queue.
	resp, body := postCampaign(t, ts, testRequest(1), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: status %d: %s", resp.StatusCode, body)
	}
	<-started
	resp, body = postCampaign(t, ts, testRequest(2), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2: status %d: %s", resp.StatusCode, body)
	}
	// Third submission finds the queue full.
	resp, body = postCampaign(t, ts, testRequest(3), nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3: status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := reg.Counter("server.queue_full").Value(); got != 1 {
		t.Errorf("queue_full = %d, want 1", got)
	}
	// Coalescing: resubmitting job 2's request joins the queued job
	// instead of consuming capacity.
	resp, body = postCampaign(t, ts, testRequest(2), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("coalesce: status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Coalesced") != "true" {
		t.Error("identical in-flight request was not coalesced")
	}
	close(release)
	var info JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	awaitJob(t, ts, info.ID, 10*time.Second)
}

func TestGracefulDrainFinishesInFlight(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := New(Config{Workers: 1, DrainTimeout: 30 * time.Second, Registry: reg})
	started := make(chan string, 1)
	release := make(chan struct{})
	srv.execute = blockingExec(started, release)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postCampaign(t, ts, testRequest(1), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var info JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	<-started

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain() }()

	// While draining: readiness and intake answer 503.
	waitFor(t, time.Second, func() bool {
		resp, err := ts.Client().Get(ts.URL + "/readyz")
		if err != nil {
			return false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	})
	resp, body = postCampaign(t, ts, testRequest(99), nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503: %s", resp.StatusCode, body)
	}

	// The in-flight job is allowed to finish, and the drain completes
	// without hitting its deadline.
	close(release)
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not complete")
	}
	got := awaitJob(t, ts, info.ID, time.Second)
	if got.State != StateDone {
		t.Errorf("in-flight job ended %s, want done", got.State)
	}
}

func TestDrainDeadlineCancelsStuckJobs(t *testing.T) {
	srv := New(Config{Workers: 1, DrainTimeout: 100 * time.Millisecond, Registry: telemetry.NewRegistry()})
	started := make(chan string, 1)
	srv.execute = blockingExec(started, nil) // never released: only ctx can end it
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postCampaign(t, ts, testRequest(1), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var info JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	<-started
	err := srv.Drain()
	if err == nil || !strings.Contains(err.Error(), "drain deadline") {
		t.Fatalf("drain error = %v, want drain deadline exceeded", err)
	}
	got := awaitJob(t, ts, info.ID, time.Second)
	if got.State != StateCanceled {
		t.Errorf("stuck job ended %s, want canceled", got.State)
	}
}

func TestCancelRunningAndQueuedJobs(t *testing.T) {
	reg := telemetry.NewRegistry()
	// The resubmitted job at the end blocks until drain cancels it, so
	// keep the deferred drain's deadline short.
	srv := New(Config{Workers: 1, DrainTimeout: 200 * time.Millisecond, Registry: reg})
	defer srv.Drain()
	started := make(chan string, 2)
	srv.execute = blockingExec(started, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	submit := func(seed uint64) JobInfo {
		resp, body := postCampaign(t, ts, testRequest(seed), nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", seed, resp.StatusCode, body)
		}
		var info JobInfo
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		return info
	}
	running := submit(1)
	<-started
	queued := submit(2)

	del := func(id string) JobInfo {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE %s: status %d: %s", id, resp.StatusCode, body)
		}
		var info JobInfo
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		return info
	}
	// Queued job cancels synchronously.
	if got := del(queued.ID); got.State != StateCanceled {
		t.Errorf("queued job after DELETE: %s, want canceled", got.State)
	}
	// Running job unwinds via its context.
	del(running.ID)
	got := awaitJob(t, ts, running.ID, 5*time.Second)
	if got.State != StateCanceled {
		t.Errorf("running job after DELETE: %s, want canceled", got.State)
	}
	if n := reg.Counter("server.jobs_canceled").Value(); n != 1 {
		// Only the running job reaches runJob's cancel accounting; the
		// queued one was settled before a worker picked it up.
		t.Errorf("jobs_canceled = %d, want 1", n)
	}
	// After cancellation the key is free for resubmission (no coalescing
	// with a dead job).
	resp, body := postCampaign(t, ts, testRequest(2), nil)
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get("X-Coalesced") == "true" {
		t.Errorf("resubmit after cancel: status %d coalesced=%q: %s",
			resp.StatusCode, resp.Header.Get("X-Coalesced"), body)
	}
}

func TestSSEStreamsProgressAndTerminalState(t *testing.T) {
	srv := New(Config{Workers: 1, Registry: telemetry.NewRegistry()})
	defer srv.Drain()
	connected := make(chan struct{})
	srv.execute = func(ctx context.Context, req *CampaignRequest, _ int) (*ResultEnvelope, error) {
		<-connected
		for i := 1; i <= 3; i++ {
			telemetry.ReportProgressContext(ctx, telemetry.ProgressUpdate{
				Component: "beam", Done: float64(i), Total: 3,
			})
		}
		return &ResultEnvelope{Kind: req.Kind}, nil
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postCampaign(t, ts, testRequest(1), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var info JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	stream, err := ts.Client().Get(ts.URL + "/v1/jobs/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	close(connected)
	events, err := io.ReadAll(stream.Body) // stream ends at the terminal event
	if err != nil {
		t.Fatal(err)
	}
	text := string(events)
	if !strings.Contains(text, "event: progress") {
		t.Errorf("stream missing progress events:\n%s", text)
	}
	if !strings.Contains(text, "event: state") || !strings.Contains(text, `"state":"done"`) {
		t.Errorf("stream missing terminal state event:\n%s", text)
	}
	if strings.Contains(text, `"result"`) {
		t.Errorf("terminal event should not carry the result body:\n%s", text)
	}
}

func TestJobETagConditionalGet(t *testing.T) {
	srv := New(Config{Workers: 1, Registry: telemetry.NewRegistry()})
	defer srv.Drain()
	release := make(chan struct{})
	close(release)
	srv.execute = blockingExec(nil, release)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postCampaign(t, ts, testRequest(1), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var info JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	awaitJob(t, ts, info.ID, 5*time.Second)

	// Conditional POST of the identical request.
	resp1, body1 := postCampaign(t, ts, testRequest(1), nil)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("repeat POST: status %d: %s", resp1.StatusCode, body1)
	}
	etag := resp1.Header.Get("ETag")
	if etag == "" {
		t.Fatal("cache hit without ETag")
	}
	resp2, _ := postCampaign(t, ts, testRequest(1), map[string]string{"If-None-Match": etag})
	if resp2.StatusCode != http.StatusNotModified {
		t.Errorf("If-None-Match POST: status %d, want 304", resp2.StatusCode)
	}
	// Conditional GET of the job record.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+info.ID, nil)
	req.Header.Set("If-None-Match", etag)
	resp3, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotModified {
		t.Errorf("conditional job GET: status %d, want 304", resp3.StatusCode)
	}
}

func TestCacheLRUBounds(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewCache(2, 1<<20, reg)
	c.Put("a", []byte("aaaa"))
	c.Put("b", []byte("bbbb"))
	if _, _, ok := c.Get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("entry a missing")
	}
	c.Put("c", []byte("cccc"))
	if _, _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted as LRU")
	}
	if _, _, ok := c.Get("a"); !ok {
		t.Error("a should have survived (recently used)")
	}
	if _, _, ok := c.Get("c"); !ok {
		t.Error("c should be cached")
	}
	if hits, misses := reg.Counter("server.cache_hits").Value(), reg.Counter("server.cache_misses").Value(); hits != 3 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 3/1", hits, misses)
	}

	// Byte bound: entries are evicted until the total fits, and an entry
	// larger than the bound is not cached at all.
	cb := NewCache(100, 10, telemetry.NewRegistry())
	cb.Put("x", []byte("12345678")) // 8 bytes
	cb.Put("y", []byte("1234"))     // 12 total → x evicted
	if _, _, ok := cb.Get("x"); ok {
		t.Error("x should have been evicted by the byte bound")
	}
	if st := cb.Stats(); st.Bytes != 4 || st.Entries != 1 {
		t.Errorf("cache holds %d entries / %d bytes, want 1/4", st.Entries, st.Bytes)
	}
	cb.Put("huge", bytes.Repeat([]byte("z"), 11))
	if _, _, ok := cb.Get("huge"); ok {
		t.Error("oversized entry should not be cached")
	}

	// Deterministic results: re-putting a key keeps one entry and a
	// stable ETag.
	etag1 := cb.Put("y", []byte("1234"))
	etag2 := cb.Put("y", []byte("1234"))
	if n := cb.Stats().Entries; etag1 != etag2 || n != 1 {
		t.Errorf("re-put changed the entry: %q vs %q, len %d", etag1, etag2, n)
	}
}

func TestJobRecordEviction(t *testing.T) {
	srv := New(Config{Workers: 1, MaxJobs: 2, Registry: telemetry.NewRegistry()})
	defer srv.Drain()
	release := make(chan struct{})
	close(release)
	srv.execute = blockingExec(nil, release)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var first string
	for seed := uint64(1); seed <= 3; seed++ {
		resp, body := postCampaign(t, ts, testRequest(seed), nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", seed, resp.StatusCode, body)
		}
		var info JobInfo
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		if seed == 1 {
			first = info.ID
		}
		awaitJob(t, ts, info.ID, 5*time.Second)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + first)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("oldest job record: status %d, want 404 after eviction", resp.StatusCode)
	}
}

// waitFor polls cond until it holds or the timeout elapses.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestStatsEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := New(Config{Workers: 1, Registry: reg})
	defer srv.Drain()
	srv.execute = func(_ context.Context, req *CampaignRequest, _ int) (*ResultEnvelope, error) {
		return &ResultEnvelope{Kind: req.Kind}, nil
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postCampaign(t, ts, testRequest(1), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var info JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	awaitJob(t, ts, info.ID, 10*time.Second)
	// Replay the identical request so the result cache answers it.
	resp, body = postCampaign(t, ts, testRequest(1), nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("replay: status %d, X-Cache %q: %s", resp.StatusCode, resp.Header.Get("X-Cache"), body)
	}

	hresp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/stats: status %d", hresp.StatusCode)
	}
	var st StatsResponse
	if err := json.NewDecoder(hresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Jobs.Submitted != 1 || st.Jobs.Completed != 1 {
		t.Errorf("jobs = %+v, want 1 submitted / 1 completed", st.Jobs)
	}
	if st.ResultCache.Hits != 1 || st.ResultCache.Entries != 1 {
		t.Errorf("result cache = %+v, want 1 hit / 1 entry", st.ResultCache)
	}
	if st.ResultCache.HitRatio <= 0 || st.ResultCache.HitRatio > 1 {
		t.Errorf("result cache hit ratio = %v, want in (0,1]", st.ResultCache.HitRatio)
	}
	// The plan cache is the process-wide plan.Shared, so other tests may
	// have populated it; only its invariants are checkable here.
	if st.PlanCache.Capacity <= 0 {
		t.Errorf("plan cache capacity = %d, want > 0", st.PlanCache.Capacity)
	}
	if st.PlanCache.Entries < 0 || st.PlanCache.Entries > st.PlanCache.Capacity {
		t.Errorf("plan cache entries = %d, want within [0, %d]", st.PlanCache.Entries, st.PlanCache.Capacity)
	}
}
