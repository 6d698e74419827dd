package telemetry

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// closeWithMetricsOut runs a CLI whose only flag is -metrics-out path
// through Start and Close, returning Close's error.
func closeWithMetricsOut(t *testing.T, path string) error {
	t.Helper()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	cli := BindFlags(fs)
	if err := fs.Parse([]string{"-metrics-out", path}); err != nil {
		t.Fatal(err)
	}
	if err := cli.Start("metrics-out-test"); err != nil {
		t.Fatal(err)
	}
	return cli.Close()
}

func TestMetricsOutAtomicOverwrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "metrics.prom")
	// A stale document from a previous run must be replaced wholesale,
	// never partially overwritten.
	if err := os.WriteFile(path, []byte(strings.Repeat("stale garbage much longer than the real document\n", 4096)), 0o644); err != nil {
		t.Fatal(err)
	}
	Count("metrics_out.atomic", 1)
	if err := closeWithMetricsOut(t, path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(got), "stale") || !strings.Contains(string(got), "\nmetrics_out_atomic_total ") {
		t.Errorf("exposition not replaced wholesale:\n%.400s", got)
	}
	// The temp file must not survive a successful rename.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("leftover temp file %q", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Errorf("dir entries = %d, want just the exposition", len(entries))
	}
}

func TestMetricsOutUnwritableDir(t *testing.T) {
	if err := closeWithMetricsOut(t, filepath.Join(t.TempDir(), "missing", "m.prom")); err == nil {
		t.Fatal("writing -metrics-out into a missing directory must fail")
	}
}
