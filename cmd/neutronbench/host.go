package main

import (
	"bufio"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// host is the block every run record carries. The load average at start
// and end, and on a virtual machine the share of CPU time the hypervisor
// stole during the run, are what tell a run on a busy shared machine from
// a regression.
type host struct {
	NumCPU       int     `json:"num_cpu"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GOARCH       string  `json:"goarch"`
	CPUModel     string  `json:"cpu_model"`
	GoVersion    string  `json:"go_version"`
	Revision     string  `json:"revision"`
	LoadAvgStart string  `json:"loadavg_start"`
	LoadAvgEnd   string  `json:"loadavg_end"`
	StealShare   float64 `json:"steal_share"`

	cpuStart cpuTimes
}

func collectHost(ctx context.Context, root string) host {
	return host{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GOARCH:       runtime.GOARCH,
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		Revision:     revision(ctx, root),
		LoadAvgStart: loadAvg(),
		cpuStart:     readCPUTimes(),
	}
}

// finish records the end of the run.
func (h *host) finish() {
	h.LoadAvgEnd = loadAvg()
	end := readCPUTimes()
	if total := end.total - h.cpuStart.total; total > 0 {
		h.StealShare = float64(end.steal-h.cpuStart.steal) / float64(total)
	}
}

// cpuTimes are the machine-wide CPU time counters of /proc/stat, in
// clock ticks: all of them summed, and the time stolen by the hypervisor.
type cpuTimes struct{ total, steal int64 }

func readCPUTimes() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return parseCPUTimes(line)
}

// parseCPUTimes reads the aggregate "cpu" line of /proc/stat; it returns
// zero counters for anything else.
func parseCPUTimes(line string) cpuTimes {
	f := strings.Fields(line)
	if len(f) == 0 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	// cpu user nice system idle iowait irq softirq steal guest guest_nice;
	// guest time is already counted in user time.
	for i := 1; i < len(f) && i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// loadAvg returns the first three fields of /proc/loadavg.
func loadAvg() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(data))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}

// revision is the checkout's git commit, or "unknown" when root is not
// the top of a git checkout.
func revision(ctx context.Context, root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.CommandContext(ctx, "git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
