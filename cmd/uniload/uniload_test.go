//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestMain makes sure a failing or panicking test leaves no unihub behind.
func TestMain(m *testing.M) {
	code := m.Run()
	killAllHubs()
	os.Exit(code)
}

// smokeCalls keeps the layer replays short under test.
const smokeCalls = 3

var update = flag.Bool("update", false, "rewrite BENCHMARK.json from the binary's tables")

// TestBenchmarkJSON keeps the committed BENCHMARK.json equal to the tables
// the binary reports from (go test ./cmd/uniload -run BenchmarkJSON -update
// rewrites it) and inside the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	c := contract()
	want, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	path := filepath.Join(root, "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the binary's tables; run with -update")
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(want))
	}

	if n := len(c.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", c.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	once := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range c.Workloads {
		once(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, d := range c.EndToEnd {
		once(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v: bad unit, direction or bound", d)
		}
		if d.Bound > c.EndToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
	for _, d := range c.PerLayer {
		once(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound != 0 {
			t.Errorf("per-layer metric %+v: bad unit or direction, or a bound", d)
		}
	}
	if c.EndToEnd[0] != (metricDef{"setup_s", "s", "lower", c.EndToEnd[0].Bound}) {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better: %+v", c.EndToEnd[0])
	}
}

// hubChildren lists the unihub processes whose parent is this test.
func hubChildren(t *testing.T) []int {
	t.Helper()
	var pids []int
	stats, _ := filepath.Glob("/proc/[0-9]*/stat")
	for _, p := range stats {
		b, err := os.ReadFile(p)
		if err != nil {
			continue // the process ended while we looked
		}
		open, shut := bytes.IndexByte(b, '('), bytes.LastIndexByte(b, ')')
		if open < 0 || shut < open {
			continue
		}
		f := strings.Fields(string(b[shut+1:]))
		if len(f) < 2 || string(b[open+1:shut]) != "unihub" {
			continue
		}
		if ppid, _ := strconv.Atoi(f[1]); ppid == os.Getpid() {
			pid, _ := strconv.Atoi(string(b[:open-1]))
			pids = append(pids, pid)
		}
	}
	return pids
}

func finite(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d defined", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s not reported", d.Name)
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
			t.Errorf("metric %s = %v %s, want a finite value in %s", d.Name, m.Value, m.Unit, d.Unit)
		}
	}
}

// TestWorkloadsSmoke runs every workload once at smoke size as a traced
// run — which holds an untraced window too — against a real unihub child,
// and checks what BENCHMARK.json promises: every metric reported once with
// a finite value, no failed op, the correctness checks clean, the layers
// separated as designed, and no child left behind.
func TestWorkloadsSmoke(t *testing.T) {
	bin, err := buildHub()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			traceFile := filepath.Join(t.TempDir(), "trace.json")
			rep, err := runWorkload(runConfig{
				workload: name, seed: 7, seconds: 1, traced: true,
				hubBin: bin, traceOut: traceFile, replayCalls: smokeCalls,
			})
			if err != nil {
				t.Fatal(err)
			}
			layers := rep.result(true)
			e2e := rep.result(false)
			for _, p := range rep.problems {
				t.Errorf("correctness: %s", p)
			}
			finite(t, layers, perLayer)
			finite(t, e2e, endToEnd)
			if !layers.Correct || layers.Failed != 0 || layers.Attempted < 10 {
				t.Errorf("traced run: correct=%v attempted=%d failed=%d", layers.Correct, layers.Attempted, layers.Failed)
			}
			for _, d := range endToEnd {
				if e2e.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, e2e.Metrics[d.Name].Value)
				}
			}
			if v := layers.Metrics["client.failed_op_share"].Value; v != 0 {
				t.Errorf("failed_op_share = %v", v)
			}
			down := e2e.Metrics["wire_down_bytes_per_op"].Value
			turnaround, present := layers.Metrics["server.turnaround_us"].Value, layers.Metrics["core.present_us"].Value
			switch name {
			case "keypad":
				if down >= 100 {
					t.Errorf("keypad ships %v B down per op, want < 100", down)
				}
				if layers.Metrics["stage.samples"].Value == 0 || layers.Metrics["stage.encode_us"].Value <= 0 {
					t.Error("keypad folded no traced interaction")
				}
			case "stylus":
				if layers.Metrics["uniserver.updates_per_op"].Value < 2 {
					t.Error("a drag should draw several updates")
				}
			case "switch":
				if down >= 100 {
					t.Errorf("switch ships %v B down per op, want < 100", down)
				}
				if turnaround <= 0 || present <= 0 {
					t.Errorf("harness spans empty: turnaround %v present %v", turnaround, present)
				}
			case "roam":
				if down <= 1000 {
					t.Errorf("roam ships %v B down per op, want > 1 KB", down)
				}
				if v := layers.Metrics["uniserver.resumed_per_op"].Value; v < 0.5 || v > 0.8 {
					t.Errorf("resumed_per_op = %v, want about 2/3", v)
				}
				if layers.Metrics["hub.connect_us"].Value <= 0 || layers.Metrics["fed.token_routes_per_op"].Value <= 0 {
					t.Error("roam measured no connect or token route")
				}
			}
			if b, err := os.ReadFile(traceFile); err != nil || !json.Valid(b) {
				t.Errorf("merged Chrome trace: %v", err)
			}
		})
	}
	if pids := hubChildren(t); len(pids) != 0 {
		t.Errorf("unihub children survived: %v", pids)
	}
}

// TestRunCLI drives the command's entry point: an untraced -repeat run of
// one workload (three set-ups each), the contract's last line, the spread
// summary, and the replay-only mode.
func TestRunCLI(t *testing.T) {
	defer func(n int) { replayCalls = n }(replayCalls)
	replayCalls = smokeCalls

	var out bytes.Buffer
	if err := run(options{workload: "switch", seed: 3, seconds: 1, repeat: 2}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("want header+result twice and a summary, got %d lines:\n%s", len(lines), out.String())
	}
	var hdr header
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil || hdr.Workload != "switch" || hdr.Clients != numClients || hdr.Fingerprint.NumCPU == 0 {
		t.Errorf("header %s: %v", lines[0], err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[3]), &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(raw) != 4 {
		t.Errorf("result line has %d keys, want exactly 4", len(raw))
	}
	var res result
	if err := json.Unmarshal([]byte(lines[3]), &res); err != nil {
		t.Fatal(err)
	}
	finite(t, res, endToEnd)
	if !res.Correct || res.Failed != 0 {
		t.Errorf("untraced run: %+v", res)
	}
	var sum map[string]map[string]spread
	if err := json.Unmarshal([]byte(lines[4]), &sum); err != nil {
		t.Fatal(err)
	}
	if s := sum["switch"]["wire_down_bytes_per_op"]; s.Min <= 0 || s.Max < s.Median || !s.Inside {
		t.Errorf("summary of an exact metric: %+v", s)
	}

	out.Reset()
	if err := run(options{layers: true, seconds: 1, repeat: 1}, &out); err != nil {
		t.Fatal(err)
	}
	var replays result
	if err := json.Unmarshal(out.Bytes(), &replays); err != nil || len(replays.Metrics) < 20 {
		t.Errorf("-layers printed %d metrics: %v", len(replays.Metrics), err)
	}
	for name := range replays.Metrics {
		found := false
		for _, d := range perLayer {
			found = found || d.Name == name
		}
		if !found {
			t.Errorf("replay metric %s is not in the per-layer table", name)
		}
	}

	for _, bad := range []options{
		{workload: "toaster", seconds: 1, repeat: 1},
		{seconds: 0, repeat: 1},
		{seconds: 1, repeat: 1, trace: 2},
	} {
		if err := run(bad, &out); err == nil {
			t.Errorf("options %+v accepted", bad)
		}
	}
	if pids := hubChildren(t); len(pids) != 0 {
		t.Errorf("unihub children survived: %v", pids)
	}
}

func TestStats(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if got := median(v); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := percentile(v, 0.9); got != 5 {
		t.Errorf("p90 = %v", got)
	}
	if percentile(nil, 0.5) != 0 || minOf(nil) != 0 || maxOf(nil) != 0 || ratio(1, 0) != 0 {
		t.Error("empty inputs must read 0")
	}
	if minOf(v) != 1 || maxOf(v) != 5 {
		t.Error("min/max")
	}
}
