package cluster

import (
	"hash/fnv"
	"sort"
)

// hrwScore is the rendezvous weight of (key, node): FNV-1a over the key
// with the node name folded in. FNV is not cryptographic, which is fine —
// peers are trusted and we only need a stable, well-mixed 64-bit score.
func hrwScore(key, node string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	_, _ = h.Write([]byte{0}) // separator: ("ab","c") must differ from ("a","bc")
	_, _ = h.Write([]byte(node))
	return h.Sum64()
}

// Rank returns nodes ordered by descending rendezvous weight for key: the
// failover sequence. Rank(k, ns)[0] is the key's owner: every caller with
// the same node list computes the same owner without coordination, and
// removing a node only reassigns the keys that node owned — the property
// that keeps cache shards stable as peers fail and return. If the owner
// is down, the next entry is the fallback every node agrees on.
func Rank(key string, nodes []string) []string {
	type scored struct {
		node  string
		score uint64
	}
	ss := make([]scored, len(nodes))
	for i, n := range nodes {
		ss[i] = scored{n, hrwScore(key, n)}
	}
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].score != ss[j].score {
			return ss[i].score > ss[j].score
		}
		return ss[i].node < ss[j].node
	})
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.node
	}
	return out
}
