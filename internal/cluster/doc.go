// Package cluster scales neutrond horizontally: a coordinator partitions
// a beam campaign's deterministic shard plan into half-open ranges, fans
// them out to peer neutrond workers over POST /v1/shards, and folds the
// returned per-shard tallies with beam.AssemblePartials — the same merge,
// in the same shard order, as a single-node run, so distributed results
// are bit-identical to local ones (DESIGN.md §15).
//
// The design leans on three properties the rest of the codebase already
// guarantees:
//
//   - Determinism: a campaign's shard plan and every shard's tally are
//     pure functions of the request, so any node can execute any range
//     and the coordinator can partition work it never runs.
//   - Idempotence: re-dispatching a range after a worker failure or
//     timeout can only reproduce identical tallies, and the assembler
//     rejects overlaps, so failure handling is double-count-safe.
//   - Order-determined merge: tallies fold in shard order regardless of
//     which peer produced them or when they arrived.
//
// Campaigns that do not decompose into shard ranges (non-beam kinds,
// or plans too small to be worth a network round trip) route whole to a
// peer chosen by rendezvous (HRW) hashing of the request's cache key.
// HRW gives every node the same key→peer map with no coordination, so
// the fleet's plan and result caches shard by key instead of every node
// re-deriving every plan — aggregate cache capacity, not CPU count, is
// what multiplies throughput on cache-heavy workloads.
//
// Health is polled from each peer's /readyz (whose JSON body carries
// queue depth and drain state). Each peer call is one attempt, and a
// refused or failed call fails over at once: a range goes back on the
// work queue, to another peer when one is healthy, locally otherwise,
// and a whole campaign goes to the next rendezvous-ranked node, so a
// coordinator with zero live peers degrades to exactly the single-node
// behavior.
package cluster
