package cluster

import (
	"context"
	"io"
	"os"
	"testing"
	"time"

	"neutronsim/internal/telemetry"
)

func TestMain(m *testing.M) {
	// The storms push hundreds of jobs through in-process servers; their
	// per-job log lines would drown the test output.
	telemetry.ConfigureLogger("cluster-test", false, io.Discard)
	os.Exit(m.Run())
}

// TestClusterBenchQuick is the tier-1 smoke: a shortened storm must
// complete error-free with bit-exact identity, and the fleet must not be
// slower than the single node. The full 2× floor is only enforced by the
// cluster row of the root BenchmarkGates table, where storms run long
// enough for a stable ratio.
func TestClusterBenchQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping cluster storm in -short mode")
	}
	rep, err := CompareBench(context.Background(), quickStorm)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v storms: single node %d requests, cluster %d", quickStorm, rep.SingleNode.Requests, rep.Cluster.Requests)
	if !rep.IdentityBitExact {
		t.Error("distributed results diverged from local execution")
	}
	if rep.SingleNode.Errors > 0 || rep.Cluster.Errors > 0 {
		t.Errorf("storm errors: single %d, cluster %d", rep.SingleNode.Errors, rep.Cluster.Errors)
	}
	if rep.SingleNode.Requests == 0 || rep.Cluster.Requests == 0 {
		t.Fatal("storm made no requests")
	}
	if rep.SaturationSpeedup < 1 {
		t.Errorf("fleet slower than single node: %.2fx (single %.1f rps, cluster %.1f rps)",
			rep.SaturationSpeedup, rep.SingleNode.Throughput, rep.Cluster.Throughput)
	}
}

// BenchmarkClusterStorm times one short single-node vs cluster comparison
// (servers and caches are rebuilt per iteration; the saturation ratio and
// its floor live in the root BenchmarkGates table).
func BenchmarkClusterStorm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := CompareBench(context.Background(), 500*time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
}
