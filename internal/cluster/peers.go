package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"neutronsim/internal/server"
)

// peerState is one peer's last observed health.
type peerState struct {
	healthy bool
	// downUntil backs off re-probing a peer that just failed a dispatch:
	// MarkDown keeps it out of Healthy() until the deadline even if a
	// concurrent health poll says ready, so a flapping peer doesn't get
	// every re-dispatched range.
	downUntil time.Time
	ready     server.ReadyzInfo
}

// PeerSet tracks the health of a fixed list of peer base URLs by polling
// GET /readyz. A peer is healthy when its latest poll returned 200; the
// JSON ReadyzInfo body (queue depth, drain state) is retained for
// dispatch decisions and surfaced by Snapshot.
type PeerSet struct {
	peers  []string
	client *http.Client

	mu sync.Mutex
	st map[string]*peerState
}

// NewPeerSet builds a set over base URLs like "http://127.0.0.1:8441".
// Peers start unhealthy until the first Poll marks them up, so a
// coordinator never dispatches to an address nobody has answered from.
func NewPeerSet(peers []string, client *http.Client) *PeerSet {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	ps := &PeerSet{peers: append([]string(nil), peers...), client: client, st: map[string]*peerState{}}
	for _, p := range ps.peers {
		ps.st[p] = &peerState{}
	}
	return ps
}

// Poll probes every peer's /readyz once, concurrently, and updates
// health. It returns the number of healthy peers.
func (ps *PeerSet) Poll(ctx context.Context) int {
	var wg sync.WaitGroup
	for _, p := range ps.peers {
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			info, err := ps.probe(ctx, peer)
			ps.mu.Lock()
			st := ps.st[peer]
			st.healthy = err == nil
			if err == nil {
				st.ready = info
			}
			ps.mu.Unlock()
		}(p)
	}
	wg.Wait()
	ps.mu.Lock()
	defer ps.mu.Unlock()
	n := 0
	for _, st := range ps.st {
		if st.healthy {
			n++
		}
	}
	return n
}

func (ps *PeerSet) probe(ctx context.Context, peer string) (server.ReadyzInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/readyz", nil)
	if err != nil {
		return server.ReadyzInfo{}, err
	}
	resp, err := ps.client.Do(req)
	if err != nil {
		return server.ReadyzInfo{}, err
	}
	defer resp.Body.Close()
	var info server.ReadyzInfo
	if derr := json.NewDecoder(resp.Body).Decode(&info); derr != nil {
		return server.ReadyzInfo{}, fmt.Errorf("decode readyz: %w", derr)
	}
	if resp.StatusCode != http.StatusOK {
		return info, fmt.Errorf("readyz %s: status %d (%s)", peer, resp.StatusCode, info.Status)
	}
	return info, nil
}

// Run polls every interval until ctx is done — the coordinator's
// background health checker.
func (ps *PeerSet) Run(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			ps.Poll(ctx)
		}
	}
}

// Healthy returns the currently healthy peers, sorted, excluding any
// inside a MarkDown window. Sorting keeps the list deterministic for HRW
// ranking and tests.
func (ps *PeerSet) Healthy() []string {
	now := time.Now()
	ps.mu.Lock()
	defer ps.mu.Unlock()
	var out []string
	for p, st := range ps.st {
		if st.healthy && now.After(st.downUntil) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// MarkDown records a dispatch failure: the peer is held out of Healthy()
// for the cooldown, after which the poller's verdict rules again.
func (ps *PeerSet) MarkDown(peer string, cooldown time.Duration) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if st, ok := ps.st[peer]; ok {
		st.healthy = false
		st.downUntil = time.Now().Add(cooldown)
	}
}
