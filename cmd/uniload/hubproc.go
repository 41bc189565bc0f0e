//go:build linux

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// hubFlags are fixed for every run: the paper's five-appliance 640×480
// panel, 16 homes of which 14 stay idle, as on a real hub.
var hubFlags = []string{
	"-listen", "127.0.0.1:0", "-metrics", "127.0.0.1:0",
	"-homes", strconv.Itoa(hubHomes), "-appliances", hubClasses,
	"-width", strconv.Itoa(hubWidth), "-height", strconv.Itoa(hubHeight),
}

const (
	hubHomes     = 16
	hubWidth     = 640
	hubHeight    = 480
	hubClasses   = "tv,vcr,amplifier,aircon,lamp"
	hubPeers     = "alpha,beta,gamma"
	hubReadyWait = 30 * time.Second
)

// moduleRoot walks up from the working directory to the directory holding
// go.mod, so the benchmark works from the root (go run) and from its own
// directory (go test).
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory")
		}
		dir = parent
	}
}

// buildHub compiles cmd/unihub from the tree into .bench_build/ (ignored
// by git) and returns the binary's path.
func buildHub() (string, error) {
	root, err := moduleRoot()
	if err != nil {
		return "", err
	}
	bin := filepath.Join(root, ".bench_build", "unihub")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/unihub")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build cmd/unihub: %w\n%s", err, out)
	}
	return bin, nil
}

// hubProc is one running unihub child.
type hubProc struct {
	cmd     *exec.Cmd
	addr    string // protocol listener, host:port
	metrics string // observability base URL, http://host:port
	stderr  tailBuffer
	waited  chan struct{} // closed once cmd.Wait returned
}

// liveHubs is every child not yet stopped, so any exit path can kill them.
var (
	liveMu   sync.Mutex
	liveHubs = map[*hubProc]struct{}{}
)

// killAllHubs stops every child still running.
func killAllHubs() {
	liveMu.Lock()
	hubs := make([]*hubProc, 0, len(liveHubs))
	for h := range liveHubs {
		hubs = append(hubs, h)
	}
	liveMu.Unlock()
	for _, h := range hubs {
		h.stop()
	}
}

// startHub launches the hub in its own process group, with a kernel-side
// kill should this process die first, and waits for its two listeners.
func startHub(bin string, federated, traced bool) (*hubProc, error) {
	args := append([]string(nil), hubFlags...)
	if federated {
		args = append(args, "-peers", hubPeers)
	}
	if traced {
		args = append(args, "-trace-sample", "1")
	}
	h := &hubProc{cmd: exec.Command(bin, args...), waited: make(chan struct{})}
	h.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	h.cmd.Stderr = &h.stderr
	stdout, err := h.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := h.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start unihub: %w", err)
	}
	liveMu.Lock()
	liveHubs[h] = struct{}{}
	liveMu.Unlock()

	type ready struct{ addr, metrics string }
	readyCh := make(chan ready, 1)
	go func() { // ends when the child closes stdout
		var r ready
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "metrics on "); ok {
				r.metrics = strings.TrimSuffix(rest, "/metrics")
			}
			if rest, ok := strings.CutPrefix(line, "routing universal interaction connections on "); ok {
				r.addr = rest
				readyCh <- r
			}
		}
		_ = h.cmd.Wait()
		close(h.waited)
	}()
	select {
	case r := <-readyCh:
		h.addr, h.metrics = r.addr, r.metrics
		return h, nil
	case <-h.waited:
		h.stop()
		return nil, fmt.Errorf("unihub exited before it was ready; stderr:\n%s", h.stderr.String())
	case <-time.After(hubReadyWait):
		h.stop()
		return nil, fmt.Errorf("unihub not ready after %v; stderr:\n%s", hubReadyWait, h.stderr.String())
	}
}

// stop kills the child's process group and waits until it has ended.
func (h *hubProc) stop() {
	liveMu.Lock()
	_, live := liveHubs[h]
	delete(liveHubs, h)
	liveMu.Unlock()
	if !live {
		return
	}
	_ = syscall.Kill(-h.cmd.Process.Pid, syscall.SIGKILL)
	<-h.waited
}

// hubSnapshot is the hub's /metrics page in its JSON form.
type hubSnapshot struct {
	Counters   map[string]int64 `json:"counters"`
	Gauges     map[string]int64 `json:"gauges"`
	Histograms map[string]struct {
		Count uint64  `json:"count"`
		Sum   float64 `json:"sum"`
	} `json:"histograms"`
}

func (h *hubProc) get(path string, accept string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, h.metrics+path, nil)
	if err != nil {
		return nil, err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%w; unihub stderr:\n%s", err, h.stderr.String())
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// snapshot scrapes the hub's existing counters and histogram sums.
func (h *hubProc) snapshot() (hubSnapshot, error) {
	var s hubSnapshot
	b, err := h.get("/metrics", "application/json")
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(b, &s)
}

// goroutines reads the goroutine count from /healthz.
func (h *hubProc) goroutines() (float64, error) {
	b, err := h.get("/healthz", "")
	if err != nil {
		return 0, err
	}
	var hz struct {
		Goroutines float64 `json:"goroutines"`
	}
	return hz.Goroutines, json.Unmarshal(b, &hz)
}

// cpu returns the child's user and system CPU time so far, from
// /proc/<pid>/stat (clock ticks are 10 ms on Linux).
func (h *hubProc) cpu() (user, sys time.Duration, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", h.cmd.Process.Pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, errors.New("bad /proc stat times")
	}
	const tick = 10 * time.Millisecond // USER_HZ is 100 on every Linux port Go supports
	return time.Duration(ut) * tick, time.Duration(st) * tick, nil
}

// rssPeakMB reads the child's resident-set high-water mark.
func (h *hubProc) rssPeakMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", h.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// selfCPU returns this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tailBuffer keeps the last few KiB written to it — the child's stderr,
// surfaced when something fails.
type tailBuffer struct {
	mu sync.Mutex
	b  []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b = append(t.b, p...)
	if over := len(t.b) - 8<<10; over > 0 {
		t.b = t.b[over:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.b)
}

// fingerprint identifies the machine and build a result came from.
type fingerprint struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func machineFingerprint() fingerprint {
	fp := fingerprint{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Kernel: "unknown", Commit: "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	return fp
}
