package cluster

import (
	"fmt"
	"testing"
)

func TestOwnerDeterministicAndRankConsistent(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:2", "http://c:3"}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		rank := Rank(key, nodes)
		if len(rank) != len(nodes) || rank[0] == "" {
			t.Fatalf("Rank(%q) = %v", key, rank)
		}
		if rank[0] != Rank(key, []string{nodes[2], nodes[0], nodes[1]})[0] {
			t.Errorf("owner of %q depends on node order", key)
		}
	}
	if len(Rank("k", nil)) != 0 {
		t.Error("Rank with no nodes should be empty")
	}
}

// TestOwnerSpreadsKeys guards against a degenerate hash: over many keys
// every node should own a non-trivial share.
func TestOwnerSpreadsKeys(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:2", "http://c:3"}
	counts := map[string]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		counts[Rank(fmt.Sprintf("key-%d", i), nodes)[0]]++
	}
	for _, n := range nodes {
		if counts[n] < keys/10 {
			t.Errorf("node %s owns only %d/%d keys", n, counts[n], keys)
		}
	}
}

// TestOwnerMinimalDisruption: removing one node must not move keys
// between the surviving nodes.
func TestOwnerMinimalDisruption(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:2", "http://c:3"}
	survivors := []string{"http://a:1", "http://c:3"}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := Rank(key, nodes)[0]
		after := Rank(key, survivors)[0]
		if before != "http://b:2" && after != before {
			t.Errorf("key %q moved %s -> %s though its owner survived", key, before, after)
		}
	}
}
