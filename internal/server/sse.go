package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// handleEvents is GET /v1/jobs/{id}/events: a Server-Sent Events stream of
// the job's progress, fed by the engine's per-shard completion hook
// through the job's context observer. Each progress frame is a "progress"
// event carrying the job's latest update: one on connect if there is one,
// then one each time an update wakes the stream, so a stream that falls
// behind skips to the latest value. The stream ends with one "state" event
// carrying the terminal JobInfo (minus the result body — fetch that from
// /v1/jobs/{id} or resubmit the request for a cache hit).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobOr404(w, r)
	if j == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	p, progressed := j.watchProgress()
	if p != nil {
		writeEvent(w, "progress", p)
		flusher.Flush()
	}
	// Idle streams emit SSE comment frames so proxies and clients with
	// read timeouts keep the connection open while a long campaign runs
	// between progress updates.
	heartbeat := time.NewTicker(s.heartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			fmt.Fprint(w, ": heartbeat\n\n")
			flusher.Flush()
		case <-progressed:
			p, progressed = j.watchProgress()
			writeEvent(w, "progress", p)
			flusher.Flush()
		case <-j.Done():
			info := j.Info()
			select {
			case <-progressed: // an update beat the terminal state
				writeEvent(w, "progress", info.Progress)
			default:
			}
			info.Result = nil // keep the stream light; the body lives at /v1/jobs/{id}
			writeEvent(w, "state", info)
			flusher.Flush()
			return
		}
	}
}

// writeEvent emits one SSE frame.
func writeEvent(w http.ResponseWriter, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}
