package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildNeutrond compiles cmd/neutrond from the checkout at root into dir.
func buildNeutrond(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "neutrond")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/neutrond")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/neutrond: %v\n%s", err, out)
	}
	return bin, nil
}

// node is one running neutrond subprocess.
type node struct {
	cmd *exec.Cmd
	url string
	// logDone is closed once the process's stderr reaches EOF, which is
	// when cmd.Wait may run.
	logDone chan struct{}
	mu      sync.Mutex
	tail    []string // last log lines, for error messages
}

// startNode execs neutrond on a free loopback port and returns once it
// has logged its listen address and answers GET /readyz with 200.
func startNode(bin string, args ...string) (*node, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-log-json", "-drain-timeout", "5s"}, args...)
	cmd := exec.Command(bin, args...)
	// A benchmark killed from outside must not leave neutrond running to
	// load the host under the next run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	n := &node{cmd: cmd, logDone: make(chan struct{})}
	urlc := make(chan string, 1)
	go n.readLog(stderr, urlc)
	select {
	case n.url = <-urlc:
	case <-n.logDone:
		n.stop()
		return nil, fmt.Errorf("neutrond %v exited before listening: %s", args, n.lastLines())
	case <-time.After(30 * time.Second):
		n.stop()
		return nil, fmt.Errorf("neutrond %v did not start listening within 30s: %s", args, n.lastLines())
	}
	if err := ready(n.url); err != nil {
		n.stop()
		return nil, err
	}
	return n, nil
}

// readLog scans the node's JSON log for the listen URL and keeps the last
// few lines; it returns at EOF, when the process has exited.
func (n *node) readLog(r io.Reader, urlc chan<- string) {
	defer close(n.logDone)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if urlc != nil && strings.Contains(line, `"msg":"listening"`) {
			var rec struct {
				URL string `json:"url"`
			}
			if json.Unmarshal([]byte(line), &rec) == nil && rec.URL != "" {
				urlc <- rec.URL
				urlc = nil
			}
		}
		n.mu.Lock()
		n.tail = append(n.tail, line)
		if len(n.tail) > 8 {
			n.tail = n.tail[1:]
		}
		n.mu.Unlock()
	}
	_, _ = io.Copy(io.Discard, r)
}

func (n *node) lastLines() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return strings.Join(n.tail, "\n")
}

// stop sends SIGTERM, gives the drain a few seconds, then kills, and
// always waits for the process to exit.
func (n *node) stop() error {
	_ = n.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-n.logDone:
	case <-time.After(10 * time.Second):
		_ = n.cmd.Process.Kill()
		<-n.logDone
	}
	return n.cmd.Wait()
}

// peakRSSKB reads the process's resident-set high-water mark.
func (n *node) peakRSSKB() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", n.cmd.Process.Pid)
}

// ready checks GET /readyz once; a node that has logged its listen
// address is serving, so no polling is needed.
func ready(url string) error {
	resp, err := http.Get(url + "/readyz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s/readyz: status %d", url, resp.StatusCode)
	}
	return nil
}

// topology is how many neutrond processes a workload runs against.
type topology int

const (
	singleNode topology = iota
	// coordinatorPlusTwo is a coordinator fanning beam campaigns out to
	// two worker processes.
	coordinatorPlusTwo
)

// sut is the system under test: every neutrond process of one topology.
// nodes[0] is the front door the load goes to.
type sut struct {
	nodes []*node
}

func (s *sut) front() string { return s.nodes[0].url }

// startSUT starts the topology. frontArgs go to the front-door node only.
func startSUT(bin string, topo topology, frontArgs ...string) (*sut, error) {
	s := &sut{}
	if topo == coordinatorPlusTwo {
		var peers []string
		var workers []*node
		for i := 0; i < 2; i++ {
			w, err := startNode(bin)
			if err != nil {
				stopAll(workers)
				return nil, err
			}
			workers = append(workers, w)
			peers = append(peers, w.url)
		}
		frontArgs = append([]string{"-role", "coordinator", "-peers", strings.Join(peers, ",")}, frontArgs...)
		coord, err := startNode(bin, frontArgs...)
		if err != nil {
			stopAll(workers)
			return nil, err
		}
		s.nodes = append([]*node{coord}, workers...)
		return s, nil
	}
	n, err := startNode(bin, frontArgs...)
	if err != nil {
		return nil, err
	}
	s.nodes = []*node{n}
	return s, nil
}

func stopAll(nodes []*node) error {
	var first error
	for _, n := range nodes {
		if err := n.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// stop drains every node, front door first so no new work fans out.
func (s *sut) stop() error { return stopAll(s.nodes) }

// peakRSSMB sums VmHWM over every node, in MB. /proc/<pid>/status
// writes "kB" for units of 1024 bytes.
func (s *sut) peakRSSMB() (float64, error) {
	var kb int64
	for _, n := range s.nodes {
		v, err := n.peakRSSKB()
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return float64(kb) * 1024 / 1e6, nil
}
