//go:build linux

// Command uniload is the repository's end-to-end benchmark: one
// load-generator process that starts a real cmd/unihub child (built from
// the tree), drives it over loopback TCP with two closed-loop clients made
// of the real proxy stack (hub.DialHome → core.Dial / core.Supervisor →
// internal/device simulators), checks that the pixels it got are right,
// and prints every metric by name and unit as JSON.
//
//	go run ./cmd/uniload -seed 1                       # all four workloads
//	go run ./cmd/uniload -workload keypad -seconds 20  # one workload
//	go run ./cmd/uniload -workload roam -trace 1       # per-layer metrics
//	go run ./cmd/uniload -layers                       # layer replays only
//	go run ./cmd/uniload -repeat 3                     # spread vs. bounds
//
// Closed loop, two clients: a user acts and waits for the panel to repaint
// before acting again. Each client waits for its own completion; an op
// that does not complete within one second counts as failed and the client
// moves on. Traffic crosses the host's loopback interface, not a link.
//
// Workloads (BENCHMARK.json carries the one-line rationale of each):
//
//	keypad  phone keypad in, TV out; one op is one key press of a seeded
//	        script of "#" (focus traverse) and "ok" (toggle), ended by the
//	        first frame presented after it.
//	stylus  PDA in and out; one op is one paced slider drag (press, 32
//	        moves on a 0.5 ms tick, release, 8 ms gap); latency runs from
//	        the release to the last frame before the next press.
//	switch  tv, pda and phone attached; one op is Proxy.SelectOutput to
//	        the next device, ended by the first frame on that device.
//	roam    federated hub (-peers alpha,beta,gamma), two core.Supervisor
//	        clients; one op is a hop: close the link, redial through the
//	        router, press "#", wait for its frame. Two hops in three
//	        resume the parked session, the third joins the next home cold.
//
// With -trace 0 a run reports the end-to-end metrics (endToEnd below) from
// an untraced window. With -trace 1 it reports the per-layer metrics: a
// short untraced window, then a traced window against a second hub started
// with -trace-sample 1 (harness spans around the calls into each layer,
// /metrics deltas, the folded span recorder), then the layer replays of
// replay.go. README.md defines every metric and how the layers interact.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed correctness check makes
// the run invalid: correct is false and the exit code is 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"syscall"
)

// metricDef describes one reported metric. bound is the share of the
// parent's median by which an end-to-end metric may worsen (0 for
// per-layer metrics, which are not gated).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a person holding a device, or the operator paying
// for the hub, sees. failed_op_share is not here: it is 0 on every healthy
// run, so it travels in the result's failed/attempted keys instead.
//
// The bounds are what the reference box supports, not what one would wish:
// it is a 2-vCPU microVM on a shared host whose speed moves between regimes
// about a quarter apart and stays in one for seconds to minutes (a bare spin
// loop shows it). Ten 20 s keypad runs spread by 5–13 % between quartiles
// whatever the statistic, and two sets of runs minutes apart have differed
// by more. The byte counts are exact on keypad, switch and roam, but on
// stylus the number of updates a drag draws follows the machine's speed
// (188–223 B up per drag), so they get the same bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p90_us", "us", "lower", 0.25},
	{"wire_down_bytes_per_op", "B", "lower", 0.25},
	{"wire_up_bytes_per_op", "B", "lower", 0.25},
	{"server_cpu_ms_per_kop", "ms", "lower", 0.25},
	{"client_cpu_ms_per_kop", "ms", "lower", 0.25},
}

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// workloadDefs in the order a full run executes them. The names are fixed;
// later issues cite them.
var workloadDefs = []workloadDef{
	{"keypad", "The paper's primary interaction, a key press repainting the TV: tiny damage, so per-message cost dominates (proxy flush, two socket hops, queue/dispatch, control round trip, widget render, tile refs)."},
	{"stylus", "Paced slider drags on a PDA: coalescable pointer moves beside never-coalesced transitions, many small updates. A gain for keys that costs moves shows here. The rate is pinned by pacing."},
	{"switch", "Dynamic device switching, the paper's headline: about 20 B on the wire, so it isolates SetPixelFormat, server no-change detection and client-side output conversion. Encode gains should not move it."},
	{"roam", "Hops through the federation router (park, resume, cold join), where connection-time layers work: fed/hub route, handshake, lot pack and thaw, full encode and decode. p50 is a resume, p90 a cold join."},
}

// workloads are the workload names, in order.
var workloads = func() []string {
	var names []string
	for _, d := range workloadDefs {
		names = append(names, d.Name)
	}
	return names
}()

// runSeconds is the window BENCHMARK.json asks the driver for, and the
// default of -seconds.
const runSeconds = 20

// benchmarkFile is BENCHMARK.json: the contract between this benchmark and
// whatever drives it. The committed file is contract() marshalled; the
// test regenerates it with -update and fails when the two differ.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func contract() benchmarkFile {
	return benchmarkFile{
		Command:    []string{"go", "run", "./cmd/uniload"},
		Paths:      []string{"cmd/uniload"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

// result is the last line of a run, in the shape the benchmark contract
// fixes.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// header precedes each result line so a multi-workload run stays
// readable; it carries the machine fingerprint.
type header struct {
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Seconds     int         `json:"seconds"`
	Trace       int         `json:"trace"`
	Clients     int         `json:"clients"`
	Fingerprint fingerprint `json:"fingerprint"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	layers   bool
	repeat   int
	traceOut string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: keypad, stylus, switch or roam (empty: all four)")
	flag.Int64Var(&o.seed, "seed", 1, "seed generating every script, gesture and itinerary")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "measured window per workload, in seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	flag.BoolVar(&o.layers, "layers", false, "run only the layer replays and print their metrics")
	flag.IntVar(&o.repeat, "repeat", 1, "run the whole set N times and print min/median/max and spread against the bounds")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: write the merged Chrome trace of the traced window to this file")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "uniload: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	// Whatever ends this process, no unihub child outlives it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() { // lives for the process
		<-sig
		killAllHubs()
		os.Exit(130)
	}()

	err := run(o, os.Stdout)
	killAllHubs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "uniload:", err)
		os.Exit(1)
	}
}

// errInvalid marks a run whose correctness checks failed; its result line
// has been printed.
var errInvalid = errors.New("correctness check failed")

// run executes what the flags ask for, writing JSON lines to out.
func run(o options, out io.Writer) error {
	if o.seconds < 1 || o.trace < 0 || o.trace > 1 || o.repeat < 1 {
		return errors.New("need -seconds >= 1, -trace 0 or 1, -repeat >= 1")
	}
	enc := json.NewEncoder(out)
	if o.layers {
		vals, err := replayLayers(replayCalls)
		if err != nil {
			return err
		}
		res := result{Correct: true, Attempted: len(vals), Metrics: map[string]metric{}}
		for _, d := range perLayer {
			if v, ok := vals[d.Name]; ok {
				res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
			}
		}
		return enc.Encode(res)
	}
	names := workloads
	if o.workload != "" {
		if !slices.Contains(workloads, o.workload) {
			return fmt.Errorf("unknown workload %q (have %v)", o.workload, workloads)
		}
		names = []string{o.workload}
	}
	bin, err := buildHub()
	if err != nil {
		return err
	}
	fp := machineFingerprint()
	runs := make(map[string][]map[string]metric)
	invalid := false
	for rep := 0; rep < o.repeat; rep++ {
		for _, name := range names {
			cfg := runConfig{
				workload: name, seed: o.seed, seconds: float64(o.seconds),
				traced: o.trace == 1, hubBin: bin, traceOut: o.traceOut,
				replayCalls: replayCalls,
			}
			if err := enc.Encode(header{name, o.seed, o.seconds, o.trace, numClients, fp}); err != nil {
				return err
			}
			rep, err := runWorkload(cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			res := rep.result(cfg.traced)
			if err := enc.Encode(res); err != nil {
				return err
			}
			for _, p := range rep.problems {
				fmt.Fprintf(os.Stderr, "uniload: %s: %s\n", name, p)
			}
			invalid = invalid || !res.Correct
			runs[name] = append(runs[name], res.Metrics)
		}
	}
	if o.repeat > 1 && o.trace == 0 {
		if err := enc.Encode(summarize(names, runs)); err != nil {
			return err
		}
	}
	if invalid {
		return errInvalid
	}
	return nil
}

// spread is one end-to-end metric of one workload across -repeat runs.
type spread struct {
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
	// Spread is (max-min)/median; Inside reports whether it stays within
	// the metric's bound.
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound"`
	Inside bool    `json:"inside"`
}

// summarize folds -repeat runs into min/median/max per workload and
// end-to-end metric.
func summarize(names []string, runs map[string][]map[string]metric) map[string]map[string]spread {
	out := make(map[string]map[string]spread, len(names))
	for _, name := range names {
		out[name] = make(map[string]spread, len(endToEnd))
		for _, def := range endToEnd {
			var vals []float64
			for _, m := range runs[name] {
				vals = append(vals, m[def.Name].Value)
			}
			s := spread{Min: minOf(vals), Median: median(vals), Max: maxOf(vals), Bound: def.Bound}
			if s.Median != 0 {
				s.Spread = (s.Max - s.Min) / s.Median
			}
			s.Inside = s.Spread <= s.Bound
			out[name][def.Name] = s
		}
	}
	return out
}
