package telemetry

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// CLI wires the shared observability flags into a command. Every cmd/*
// binary binds the same flags so campaigns are observable the same way
// everywhere:
//
//	-obs-addr host:port   serve /metrics, expvar, traces and pprof while running
//	-metrics-out FILE     write the /metrics exposition to FILE at exit
//	-progress             print periodic campaign status to stderr
//	-log-json             emit structured JSON logs instead of key=value text
//	-cpuprofile FILE      write a CPU profile covering Start..Close
//	-memprofile FILE      write a heap profile at exit
//
// The profile files are written like -metrics-out: to a temp file in the
// target directory, renamed into place at Close, so a crash mid-run never
// leaves a truncated profile under the requested name. The CPU profile
// streams into its temp file while the program runs; the heap profile is
// taken at Close and goes through WriteFileAtomic.
type CLI struct {
	ObsAddr    string
	MetricsOut string
	Progress   bool
	LogJSON    bool
	CPUProfile string
	MemProfile string

	server *http.Server
	cpuTmp *os.File
	closed bool
}

// BindFlags registers the observability flags on fs and returns the
// handle the command uses to start and stop the facilities.
func BindFlags(fs *flag.FlagSet) *CLI {
	c := &CLI{}
	fs.StringVar(&c.ObsAddr, "obs-addr", "", "serve /metrics, /debug/vars, /debug/traces and pprof on this address (e.g. localhost:6060)")
	fs.StringVar(&c.MetricsOut, "metrics-out", "", "write the Prometheus text exposition of /metrics to this file at exit (atomic rename)")
	fs.BoolVar(&c.Progress, "progress", false, "print periodic campaign progress lines to stderr")
	fs.BoolVar(&c.LogJSON, "log-json", false, "structured JSON logs on stderr instead of key=value text")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a CPU profile to this file (atomic rename at exit)")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a heap profile to this file at exit (atomic rename)")
	return c
}

// Start activates the facilities selected by the parsed flags. Call it
// once after flag parsing; pair it with a deferred Close.
func (c *CLI) Start(program string) error {
	log := ConfigureLogger(program, c.LogJSON, nil)
	if c.Progress {
		EnableProgress(os.Stderr, 2*time.Second)
	}
	if c.ObsAddr != "" {
		srv, addr, err := Serve(c.ObsAddr, Default)
		if err != nil {
			return fmt.Errorf("observability server: %w", err)
		}
		c.server = srv
		log.Info("observability server listening",
			"metrics", "http://"+addr+"/metrics",
			"expvar", "http://"+addr+"/debug/vars",
			"pprof", "http://"+addr+"/debug/pprof/",
			"traces", "http://"+addr+"/debug/traces")
	}
	if c.CPUProfile != "" {
		dir, base := filepath.Split(c.CPUProfile)
		tmp, err := os.CreateTemp(dir, base+".tmp-*")
		if err != nil {
			c.Close()
			return fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(tmp); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			c.Close()
			return fmt.Errorf("cpu profile: %w", err)
		}
		c.cpuTmp = tmp
	}
	return nil
}

// finishCPUProfile stops profiling and renames the temp file into place.
func (c *CLI) finishCPUProfile() error {
	tmp := c.cpuTmp
	c.cpuTmp = nil
	pprof.StopCPUProfile()
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return fmt.Errorf("cpu profile: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.CPUProfile); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	return nil
}

// writeMemProfile captures the live heap (after a GC, so the profile shows
// retained memory rather than garbage) and writes it atomically.
func (c *CLI) writeMemProfile() error {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.WriteHeapProfile(&buf); err != nil {
		return fmt.Errorf("mem profile: %w", err)
	}
	return WriteFileAtomic(c.MemProfile, buf.Bytes(), 0o644)
}

// Close writes the metrics exposition (if requested), stops the progress
// reporter and shuts down the observability server. It is idempotent so
// commands can both defer it and return its error on the success path.
func (c *CLI) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	DisableProgress()
	var err error
	if c.cpuTmp != nil {
		err = c.finishCPUProfile()
	}
	if c.MemProfile != "" {
		if merr := c.writeMemProfile(); err == nil {
			err = merr
		}
	}
	if c.MetricsOut != "" {
		var buf bytes.Buffer
		_ = Default.WritePrometheus(&buf) // writes to a bytes.Buffer cannot fail
		if merr := WriteFileAtomic(c.MetricsOut, buf.Bytes(), 0o644); err == nil {
			err = merr
		}
	}
	if c.server != nil {
		if cerr := c.server.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
