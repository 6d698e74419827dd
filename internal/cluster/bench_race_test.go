//go:build race

package cluster

import "time"

// quickStorm is how long each of TestClusterBenchQuick's storms lasts.
// Under the race detector a single-node miss takes about a second, so an
// 800-ms storm would let the single node answer about one request and the
// fleet/single ratio would rest on that one answer.
const quickStorm = 3 * time.Second
