package server

import (
	"bufio"
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

// sseFrame is one parsed server-sent event (or comment).
type sseFrame struct {
	comment string
	event   string
	data    string
}

// readSSE parses a complete SSE stream into frames.
func readSSE(t *testing.T, body string) []sseFrame {
	t.Helper()
	var frames []sseFrame
	for _, chunk := range strings.Split(body, "\n\n") {
		if strings.TrimSpace(chunk) == "" {
			continue
		}
		var f sseFrame
		sc := bufio.NewScanner(strings.NewReader(chunk))
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, ":"):
				f.comment = strings.TrimSpace(line[1:])
			case strings.HasPrefix(line, "event: "):
				f.event = line[len("event: "):]
			case strings.HasPrefix(line, "data: "):
				f.data = line[len("data: "):]
			}
		}
		frames = append(frames, f)
	}
	return frames
}

// TestSSEEventOrdering checks that progress frames arrive in submission
// order (Done never decreases) and the terminal state frame comes last.
func TestSSEEventOrdering(t *testing.T) {
	srv := New(Config{Workers: 1, Registry: telemetry.NewRegistry()})
	defer srv.Drain()
	connected := make(chan struct{})
	srv.cfg.Execute = func(ctx context.Context, req *CampaignRequest, _ int) (*ResultEnvelope, error) {
		<-connected
		for i := 1; i <= 5; i++ {
			telemetry.ReportProgress(ctx, telemetry.ProgressUpdate{
				Component: "beam", Done: float64(i), Total: 5,
			})
			// Let the stream wake between updates, so it sends several
			// frames rather than skipping to the last.
			time.Sleep(5 * time.Millisecond)
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
	close(connected)
	raw := new(strings.Builder)
	if _, err := io.Copy(raw, stream.Body); err != nil {
		t.Fatal(err)
	}
	frames := readSSE(t, raw.String())
	if len(frames) < 2 {
		t.Fatalf("stream too short: %q", raw.String())
	}
	last := -1.0
	progress := 0
	for i, f := range frames {
		switch f.event {
		case "progress":
			progress++
			var p telemetry.ProgressUpdate
			if err := json.Unmarshal([]byte(f.data), &p); err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if p.Done < last {
				t.Errorf("progress went backwards: %v after %v", p.Done, last)
			}
			last = p.Done
		case "state":
			if i != len(frames)-1 {
				t.Errorf("state frame at %d is not last of %d", i, len(frames))
			}
			if !strings.Contains(f.data, `"state":"done"`) {
				t.Errorf("terminal frame: %s", f.data)
			}
		}
	}
	if progress == 0 {
		t.Error("no progress frames observed")
	}
}

// TestSSEHeartbeatOnIdleStream checks that a quiet job still produces
// periodic comment frames so intermediaries keep the connection alive.
func TestSSEHeartbeatOnIdleStream(t *testing.T) {
	srv := New(Config{Workers: 1, Registry: telemetry.NewRegistry()})
	defer srv.Drain()
	srv.heartbeat = 20 * time.Millisecond
	release := make(chan struct{})
	started := make(chan string, 1)
	srv.cfg.Execute = blockingExec(started, release)
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
	<-started // job is running and will emit no progress at all
	stream, err := ts.Client().Get(ts.URL + "/v1/jobs/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	// Read until a few heartbeats have arrived, then release the job.
	reader := bufio.NewReader(stream.Body)
	heartbeats := 0
	deadline := time.After(5 * time.Second)
	lines := make(chan string)
	go func() {
		for {
			line, err := reader.ReadString('\n')
			if err != nil {
				close(lines)
				return
			}
			lines <- line
		}
	}()
	for heartbeats < 3 {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("stream closed before heartbeats arrived")
			}
			if strings.HasPrefix(line, ": heartbeat") {
				heartbeats++
			}
		case <-deadline:
			t.Fatalf("saw %d heartbeats in 5s, want 3", heartbeats)
		}
	}
	close(release)
	// The stream must still terminate cleanly with the state frame.
	var tail strings.Builder
	for line := range lines {
		tail.WriteString(line)
	}
	if !strings.Contains(tail.String(), `"state":"done"`) {
		t.Errorf("stream did not end with terminal state:\n%s", tail.String())
	}
}

// TestSSEClosesOnJobCancellation checks that canceling a running job ends
// the event stream with a canceled state frame rather than leaving the
// client hanging.
func TestSSEClosesOnJobCancellation(t *testing.T) {
	srv := New(Config{Workers: 1, Registry: telemetry.NewRegistry()})
	defer srv.Drain()
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	srv.cfg.Execute = blockingExec(started, release)
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

	stream, err := ts.Client().Get(ts.URL + "/v1/jobs/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+info.ID, nil)
	delResp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()

	done := make(chan string, 1)
	go func() {
		var b strings.Builder
		io.Copy(&b, stream.Body)
		done <- b.String()
	}()
	select {
	case text := <-done:
		frames := readSSE(t, text)
		if len(frames) == 0 {
			t.Fatalf("empty stream after cancellation: %q", text)
		}
		lastFrame := frames[len(frames)-1]
		if lastFrame.event != "state" || !strings.Contains(lastFrame.data, `"state":"canceled"`) {
			t.Errorf("stream must end with a canceled state frame, got %+v", lastFrame)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not close after job cancellation")
	}
}

// nextFrame reads one SSE frame (event or comment) from a live stream.
func nextFrame(t *testing.T, r *bufio.Reader) sseFrame {
	t.Helper()
	var chunk strings.Builder
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended after %q: %v", chunk.String(), err)
		}
		if line == "\n" {
			break
		}
		chunk.WriteString(line)
	}
	frames := readSSE(t, chunk.String())
	if len(frames) != 1 {
		t.Fatalf("want one frame, got %q", chunk.String())
	}
	return frames[0]
}

// TestSSEProgressFramesPinned pins the progress wire form byte for byte:
// the data of two progress frames, one without and one with fluence and
// events, and the progress member of GET /v1/jobs/{id}. The update's
// device, beam, phase and elapsed time stay off the wire.
func TestSSEProgressFramesPinned(t *testing.T) {
	srv := New(Config{Workers: 1, Registry: telemetry.NewRegistry()})
	defer srv.Drain()
	updates := []telemetry.ProgressUpdate{
		{Component: "beam", Device: "K20", Beam: "ChipIR", Done: 4096, Total: 10000, Elapsed: time.Second},
		{Component: "beam", Device: "K20", Beam: "ChipIR", Phase: "runs", Done: 10000, Total: 10000,
			Fluence: 1.0368e10, Events: 425, Elapsed: 3 * time.Second},
	}
	want := []string{
		`{"component":"beam","done":4096,"total":10000}`,
		`{"component":"beam","done":10000,"total":10000,"fluence":10368000000,"events":425}`,
	}
	step := make(chan struct{})
	srv.cfg.Execute = func(ctx context.Context, req *CampaignRequest, _ int) (*ResultEnvelope, error) {
		for _, u := range updates {
			<-step
			telemetry.ReportProgress(ctx, u)
		}
		<-step
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
	r := bufio.NewReader(stream.Body)
	for i, w := range want {
		step <- struct{}{}
		if f := nextFrame(t, r); f.event != "progress" || f.data != w {
			t.Errorf("frame %d: event %q data %s, want progress %s", i, f.event, f.data, w)
		}
	}
	step <- struct{}{}
	if f := nextFrame(t, r); f.event != "state" || !strings.Contains(f.data, `"state":"done"`) {
		t.Errorf("terminal frame: event %q data %s", f.event, f.data)
	}

	job, err := ts.Client().Get(ts.URL + "/v1/jobs/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer job.Body.Close()
	var members map[string]json.RawMessage
	if err := json.NewDecoder(job.Body).Decode(&members); err != nil {
		t.Fatal(err)
	}
	if got := string(members["progress"]); got != want[1] {
		t.Errorf("GET /v1/jobs/{id} progress = %s, want %s", got, want[1])
	}
}
