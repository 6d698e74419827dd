package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"neutronsim/internal/server"
	"neutronsim/internal/telemetry/trace"
)

// Serving tiers as the caller sees them: the X-Cache header of a 200
// answer, or a job for a 202.
const (
	tierHit       = "hit"
	tierSurrogate = "surrogate"
	tierExact     = "exact"
)

// client is the load generator's view of one neutrond front door. Its
// transport holds at most conns connections, so the load really comes
// from that many sockets.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// answer is one campaign request as its caller saw it.
type answer struct {
	tier string
	// body is the result envelope JSON exactly as neutrond sent it.
	body []byte
	// stages is the job's queue/compile/run/merge breakdown; job path only.
	stages []trace.StageTiming
	// sent is when the POST went out and done when the result was in
	// hand. On the job path, posted ends the POST round trip and
	// notified marks the terminal state event, after which the result is
	// fetched; a served answer has posted == done.
	sent, posted, notified, done time.Time
	// trips is the number of HTTP round trips the answer took.
	trips int
}

func (a answer) latency() time.Duration { return a.done.Sub(a.sent) }

// campaign submits req and returns its result: directly for a cache or
// surrogate answer, or by waiting on GET /v1/jobs/{id}/events for the
// terminal state and then fetching the job. A refused request (any
// non-2xx, 429 included), a transport error and a job that did not end
// done are all errors.
func (c *client) campaign(ctx context.Context, req *server.CampaignRequest) (answer, error) {
	blob, err := json.Marshal(req)
	if err != nil {
		return answer{}, err
	}
	a := answer{sent: time.Now(), trips: 1}
	status, hdr, payload, err := c.do(ctx, http.MethodPost, "/v1/campaigns", blob)
	if err != nil {
		return answer{}, err
	}
	a.posted = time.Now()
	switch status {
	case http.StatusOK:
		a.tier = hdr.Get("X-Cache")
		a.body = payload
		a.done = a.posted
		return a, nil
	case http.StatusAccepted:
	default:
		return answer{}, fmt.Errorf("POST /v1/campaigns: status %d: %s", status, bytes.TrimSpace(payload))
	}
	var job server.JobInfo
	if err := json.Unmarshal(payload, &job); err != nil {
		return answer{}, fmt.Errorf("decode job: %w", err)
	}
	if err := c.await(ctx, job.ID); err != nil {
		return answer{}, err
	}
	a.notified = time.Now()
	status, _, payload, err = c.do(ctx, http.MethodGet, "/v1/jobs/"+job.ID, nil)
	if err != nil {
		return answer{}, err
	}
	a.done = time.Now()
	if status != http.StatusOK {
		return answer{}, fmt.Errorf("GET /v1/jobs/%s: status %d", job.ID, status)
	}
	if err := json.Unmarshal(payload, &job); err != nil {
		return answer{}, fmt.Errorf("decode job %s: %w", job.ID, err)
	}
	if job.State != server.StateDone || len(job.Result) == 0 {
		return answer{}, fmt.Errorf("job %s: state %s without a result: %s", job.ID, job.State, job.Error)
	}
	a.tier = tierExact
	a.body = job.Result
	a.stages = job.Stages
	a.trips = 3
	return a, nil
}

// await follows the job's event stream to its terminal state event and
// reports an error unless the job ended done. The stream is read to its
// end so the connection goes back to the pool.
func (c *client) await(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /v1/jobs/%s/events: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case event == "state" && strings.HasPrefix(line, "data: "):
			var info server.JobInfo
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &info); err != nil {
				return fmt.Errorf("decode state event of job %s: %w", id, err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			if info.State != server.StateDone {
				return fmt.Errorf("job %s ended %s: %s", id, info.State, info.Error)
			}
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("event stream of job %s: %w", id, err)
	}
	return fmt.Errorf("event stream of job %s ended without a state event", id)
}

// do sends one request and reads the whole response.
func (c *client) do(ctx context.Context, method, path string, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, payload, nil
}

// getJSON fetches path and decodes its JSON body into v.
func (c *client) getJSON(ctx context.Context, path string, v any) error {
	status, _, payload, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, status)
	}
	return json.Unmarshal(payload, v)
}

// tally accumulates the outcomes of one measurement window. A failed or
// refused request counts against attempted and adds no latency sample.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	latMs     []float64
	doneAt    []time.Time
	tierMs    map[string][]float64
	errs      []string
	// segs are the measurement windows the requests were sent in.
	segs []segment
}

// segment is one measurement window.
type segment struct {
	start  time.Time
	length time.Duration
}

func newTally() *tally { return &tally{tierMs: map[string][]float64{}} }

func (t *tally) record(a answer, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err.Error())
		}
		return
	}
	ms := float64(a.latency().Nanoseconds()) / 1e6
	t.latMs = append(t.latMs, ms)
	t.doneAt = append(t.doneAt, a.done)
	t.tierMs[a.tier] = append(t.tierMs[a.tier], ms)
}

// drive runs clients closed-loop request streams into t until the window
// closes: each client sends its next request only once the previous one
// has answered. A request still in flight when the window closes is
// waited for but not counted. check sees every successful answer inside
// the window.
func drive(ctx context.Context, t *tally, c *client, clients int, window time.Duration,
	next func(client, i int) call, check func(call, answer)) {
	start := time.Now()
	t.mu.Lock()
	t.segs = append(t.segs, segment{start: start, length: window})
	t.mu.Unlock()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
				k := next(cl, i)
				a, err := c.campaign(ctx, k.req)
				if time.Now().After(deadline) {
					return
				}
				if err == nil {
					check(k, a)
				}
				t.record(a, err)
			}
		}(cl)
	}
	wg.Wait()
}
