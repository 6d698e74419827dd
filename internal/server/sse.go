package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// handleEvents is GET /v1/jobs/{id}/events: a Server-Sent Events stream of
// the job's progress, wired to the engine's per-shard completion counter
// through the job's context observer. Each progress frame is a "progress"
// event; the stream ends with one "state" event carrying the terminal
// JobInfo (minus the result body — fetch that from /v1/jobs/{id} or
// resubmit the request for a cache hit).
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

	sub := j.subscribe()
	defer j.unsubscribe(sub)
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
		case p := <-sub:
			writeEvent(w, "progress", p)
			flusher.Flush()
		case <-j.Done():
			// Drain any progress frames that beat the terminal state.
			for {
				select {
				case p := <-sub:
					writeEvent(w, "progress", p)
					continue
				default:
				}
				break
			}
			info := j.Info()
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
