package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"neutronsim/internal/telemetry"
	"neutronsim/internal/telemetry/trace"
)

// TestJobTraceEndToEnd runs a real (small) beam campaign through the HTTP
// surface with an incoming W3C traceparent and checks the full tracing
// contract: trace ID inheritance, the emitted response header, the span
// tree at /v1/jobs/{id}/trace, and the stage breakdown in job status.
func TestJobTraceEndToEnd(t *testing.T) {
	srv := New(Config{Workers: 1, Registry: telemetry.NewRegistry()})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const callerTrace = "0af7651916cd43dd8448eb211c80319c"
	const callerSpan = "b7ad6b7169203331"
	resp, body := postCampaign(t, ts, testRequest(1), map[string]string{
		trace.Header: "00-" + callerTrace + "-" + callerSpan + "-01",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	// The 202 echoes a traceparent naming the job's root span inside the
	// caller's trace.
	tp, err := trace.ParseTraceparent(resp.Header.Get(trace.Header))
	if err != nil {
		t.Fatalf("response traceparent: %v", err)
	}
	if tp.TraceID.String() != callerTrace {
		t.Fatalf("response trace ID = %s, want caller's %s", tp.TraceID, callerTrace)
	}
	var info JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.TraceID != callerTrace {
		t.Fatalf("job TraceID = %q, want %q", info.TraceID, callerTrace)
	}

	final := awaitJob(t, ts, info.ID, 30*time.Second)
	if final.State != StateDone {
		t.Fatalf("job state = %q: %s", final.State, final.Error)
	}

	// Job status carries the per-stage timing breakdown.
	stages := map[string]float64{}
	for _, st := range final.Stages {
		if st.Seconds < 0 {
			t.Errorf("stage %q has negative duration %v", st.Stage, st.Seconds)
		}
		stages[st.Stage] = st.Seconds
	}
	for _, want := range []string{"queue", "compile", "run", "merge"} {
		if _, ok := stages[want]; !ok {
			t.Errorf("job stages missing %q: %+v", want, final.Stages)
		}
	}

	// The span tree endpoint returns the same trace, rooted at the job
	// span, parented to the caller's span, with stage totals bounded by
	// the root duration.
	res, err := ts.Client().Get(ts.URL + "/v1/jobs/" + info.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("trace endpoint: status %d", res.StatusCode)
	}
	var snap trace.Snapshot
	if err := json.NewDecoder(res.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.TraceID != callerTrace {
		t.Fatalf("trace snapshot ID = %q, want %q", snap.TraceID, callerTrace)
	}
	if snap.Root == nil || snap.Root.Name != "job" {
		t.Fatal("trace must root at the job span")
	}
	if snap.Root.InFlight {
		t.Error("root span still in flight after a terminal job")
	}
	attrs := map[string]string{}
	for _, a := range snap.Root.Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["job_id"] != info.ID || attrs["state"] != StateDone {
		t.Errorf("root attrs = %v", snap.Root.Attrs)
	}
	var total float64
	for _, st := range snap.Stages {
		if st.Seconds < 0 {
			t.Errorf("stage %q negative in snapshot", st.Stage)
		}
		total += st.Seconds
	}
	// Stages partition the job's wall time (plus untagged slack), so their
	// sum can never exceed the root duration. Allow a sliver of float
	// noise.
	if total > snap.Root.DurationSeconds*1.001+0.001 {
		t.Errorf("stage sum %v exceeds root duration %v", total, snap.Root.DurationSeconds)
	}
	// The pipeline spans all landed under the job root.
	names := map[string]bool{}
	var walk func(n *trace.SpanSnapshot)
	walk = func(n *trace.SpanSnapshot) {
		names[n.Name] = true
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(snap.Root)
	for _, want := range []string{"queue.wait", "beam.campaign", "plan.lookup", "engine.beam", "engine.shard", "beam.merge"} {
		if !names[want] {
			t.Errorf("trace tree missing span %q", want)
		}
	}
}

func TestJobTraceFreshWhenHeaderMalformed(t *testing.T) {
	srv := New(Config{Workers: 1, Registry: telemetry.NewRegistry()})
	defer srv.Drain()
	release := make(chan struct{})
	close(release)
	srv.cfg.Execute = blockingExec(nil, release)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postCampaign(t, ts, testRequest(1), map[string]string{
		trace.Header: "garbage-not-a-traceparent",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	tp, err := trace.ParseTraceparent(resp.Header.Get(trace.Header))
	if err != nil {
		t.Fatalf("malformed inbound header must still yield a valid outbound one: %v", err)
	}
	var info JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.TraceID != tp.TraceID.String() {
		t.Errorf("job TraceID %q != header trace ID %q", info.TraceID, tp.TraceID)
	}
}

func TestTraceEndpointUnknownJob(t *testing.T) {
	srv := New(Config{Workers: 1, Registry: telemetry.NewRegistry()})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	res, err := ts.Client().Get(ts.URL + "/v1/jobs/j-999999/trace")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", res.StatusCode)
	}
}

func TestMetricsEndpointServesValidExposition(t *testing.T) {
	srv := New(Config{Workers: 1, Registry: telemetry.NewRegistry()})
	defer srv.Drain()
	release := make(chan struct{})
	close(release)
	srv.cfg.Execute = blockingExec(nil, release)
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

	res, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Errorf("Content-Type = %q", ct)
	}
	text, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), "server_jobs_submitted_total 1") {
		t.Errorf("/metrics missing job counter:\n%s", text)
	}
}

// TestDoneJobInfoReusesStages checks that a terminal job reports the
// stage breakdown of its final trace without rebuilding the trace on
// every read: Info of a done job allocates no more than Info of a queued
// one, whose trace is still live.
func TestDoneJobInfoReusesStages(t *testing.T) {
	queued := newJob("j-queued", &CampaignRequest{Kind: "beam"}, "k1", nil)
	j := newJob("j-done", &CampaignRequest{Kind: "beam"}, "k2", nil)
	if !j.markRunning(func() {}) {
		t.Fatal("job did not start")
	}
	campaign := j.root.StartChild("beam.campaign")
	for _, stage := range []string{"compile", "run", "merge"} {
		sp := campaign.StartChild("beam." + stage)
		sp.SetStage(stage)
		sp.End()
	}
	campaign.End()
	if !j.finish(StateDone, []byte(`{}`), "etag", "") {
		t.Fatal("job did not finish")
	}
	info := j.Info()
	want := j.TraceSnapshot().Stages
	if len(want) != 4 || !reflect.DeepEqual(info.Stages, want) {
		t.Errorf("done job stages = %+v, want the trace's %+v", info.Stages, want)
	}
	doneAllocs := testing.AllocsPerRun(100, func() { j.Info() })
	queuedAllocs := testing.AllocsPerRun(100, func() { queued.Info() })
	if doneAllocs > queuedAllocs {
		t.Errorf("Info of a done job allocates %.0f times, of a queued job %.0f", doneAllocs, queuedAllocs)
	}
}
