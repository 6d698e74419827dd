package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"neutronsim/internal/server"
)

// TestRefusedAndFailedRequestsAreErrors checks that a 429 and a job that
// ends failed both count as failed attempts with no latency sample, while
// a served answer adds one.
func TestRefusedAndFailedRequestsAreErrors(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		var req server.CampaignRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		switch req.Seed {
		case 1:
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
		case 2:
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"id":"j-000001","state":"queued"}`)
		default:
			w.Header().Set("X-Cache", "hit")
			fmt.Fprint(w, `{"kind":"beam"}`)
		}
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "event: state\ndata: {\"id\":\"j-000001\",\"state\":\"failed\",\"error\":\"boom\"}\n\n")
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c := newClient(srv.URL, 1)
	defer c.close()

	tl := newTally()
	for seed := uint64(1); seed <= 3; seed++ {
		a, err := c.campaign(context.Background(), &server.CampaignRequest{Kind: server.KindBeam, Seed: seed})
		if (err == nil) != (seed == 3) {
			t.Fatalf("seed %d: err = %v", seed, err)
		}
		tl.record(a, err)
	}
	if tl.attempted != 3 || tl.failed != 2 {
		t.Errorf("attempted %d, failed %d; want 3 and 2", tl.attempted, tl.failed)
	}
	if len(tl.latMs) != 1 || len(tl.tierMs[tierHit]) != 1 {
		t.Errorf("latency samples %d (hit tier %d), want 1", len(tl.latMs), len(tl.tierMs[tierHit]))
	}
}
