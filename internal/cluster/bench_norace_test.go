//go:build !race

package cluster

import "time"

// quickStorm is how long each of TestClusterBenchQuick's storms lasts.
const quickStorm = 800 * time.Millisecond
