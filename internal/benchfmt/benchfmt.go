// Package benchfmt defines the benchmark-baseline interchange format
// shared by the CI regression gate (cmd/benchgate) and local runs: a JSON
// snapshot of benchmark results (ns/op, allocs/op, B/op) plus a parser
// for `go test -bench -benchmem` output and a tolerance-based comparator.
//
// The committed BENCH_BASELINE.json at the repository root is an instance
// of this schema; the gate fails a change whose measured results regress
// beyond the configured tolerances against it.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Schema identifies the baseline file format.
const Schema = "uniint-bench-baseline/1"

// Result is one benchmark measurement.
type Result struct {
	// Name is the canonical benchmark name (GOMAXPROCS suffix stripped).
	Name string `json:"name"`
	// NsPerOp is wall time per operation in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is heap allocations per operation (-1 when the run did
	// not report them).
	AllocsPerOp float64 `json:"allocs_per_op"`
	// BytesPerOp is heap bytes per operation (-1 when not reported).
	BytesPerOp float64 `json:"bytes_per_op"`
	// Extra holds custom b.ReportMetric units (e.g. "wirebytes/op"),
	// keyed by unit. Extras are cost metrics — the gate fails when a
	// measured value exceeds its baselined ceiling, same as ns/op —
	// except the benefit units (see Benefit), which are held to a floor.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// benefitUnits are the custom metrics where more is better: work the
// system avoided or state it kept. A fixed list, not a naming rule, so a
// new benefit metric is a reviewed line here beside its baseline entry.
var benefitUnits = map[string]bool{
	"coalesced/op": true, // input events folded before they cost a dispatch
	"resumes/op":   true, // reconnects that reclaimed the parked session
}

// Benefit reports whether the custom metric unit is gated as a floor
// (falling below the baseline fails) instead of a ceiling.
func Benefit(unit string) bool { return benefitUnits[unit] }

// Baseline is the committed snapshot the gate compares against.
type Baseline struct {
	Schema string `json:"schema"`
	// Note is free-form provenance (host, commit, how generated).
	Note       string   `json:"note,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// cpuSuffix matches the "-8" GOMAXPROCS suffix go test appends to
// benchmark names (absent when GOMAXPROCS=1).
var cpuSuffix = regexp.MustCompile(`-\d+$`)

// Canonical strips the GOMAXPROCS suffix so results compare across
// machines with different core counts.
func Canonical(name string) string {
	return cpuSuffix.ReplaceAllString(name, "")
}

// ParseGoBench reads `go test -bench [-benchmem]` output and returns the
// parsed results. Lines that are not benchmark results are ignored.
func ParseGoBench(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iteration count, then (value, unit) pairs.
		if len(fields) < 4 {
			continue
		}
		res := Result{Name: Canonical(fields[0]), AllocsPerOp: -1, BytesPerOp: -1}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // not a result line (e.g. "BenchmarkFoo ... FAIL")
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			case "B/op":
				res.BytesPerOp = v
			default:
				// Custom b.ReportMetric units ("wirebytes/op", "px/op",
				// "bytes/session", "MB/s", …): keep the per-op and
				// per-session ones — they are stable cost metrics;
				// throughput units vary with the machine.
				if strings.HasSuffix(unit, "/op") || strings.HasSuffix(unit, "/session") {
					if res.Extra == nil {
						res.Extra = make(map[string]float64)
					}
					res.Extra[unit] = v
				}
			}
		}
		if res.NsPerOp > 0 {
			out = append(out, res)
		}
	}
	return out, sc.Err()
}

// ReadBaseline loads a baseline file.
func ReadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("benchfmt: %s: %w", path, err)
	}
	if b.Schema != Schema {
		return nil, fmt.Errorf("benchfmt: %s: schema %q, want %q", path, b.Schema, Schema)
	}
	return &b, nil
}

// WriteBaseline writes a baseline file (sorted by name, stable diffs).
func WriteBaseline(path string, b *Baseline) error {
	b.Schema = Schema
	sort.Slice(b.Benchmarks, func(i, j int) bool {
		return b.Benchmarks[i].Name < b.Benchmarks[j].Name
	})
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Regression is one gate violation.
type Regression struct {
	Name   string  // benchmark
	Metric string  // "ns/op" or "allocs/op"
	Base   float64 // committed value
	Cur    float64 // measured value
	Limit  float64 // maximum allowed
}

func (r Regression) String() string {
	verb := "exceeds limit"
	if r.Cur < r.Limit {
		verb = "falls below floor"
	}
	return fmt.Sprintf("%s: %s %.6g %s %.6g (baseline %.6g)",
		r.Name, r.Metric, r.Cur, verb, r.Limit, r.Base)
}

// Tolerances configures the comparator.
type Tolerances struct {
	// Ns is the relative headroom on ns/op (0.20 = +20%). Wall time
	// varies across hardware; CI typically runs with generous headroom
	// that still catches the 2× class of regression.
	Ns float64
	// Allocs is the relative headroom on allocs/op, plus AllocSlack
	// absolute. Allocation counts are machine-independent, so this can
	// stay tight; a zero-alloc baseline stays pinned at zero.
	Allocs float64
	// AllocSlack is an absolute allowance on top of the relative allocs
	// headroom, absorbing ±1 jitter on benchmarks with timers/waits in
	// the loop.
	AllocSlack float64
	// Extra is the relative headroom on custom per-op metrics (Extra
	// map). Zero means "use the ns/op headroom". Cost metrics fail above
	// baseline×(1+Extra); benefit metrics (Benefit) fail below
	// baseline×(1−Extra), so a zero baseline is a floor nothing fails.
	Extra float64
}

// Compare evaluates measured results against the baseline. Baseline
// entries with no matching measurement are returned in missing (the gate
// treats vanished benchmarks as failures so renames cannot slip through);
// measurements absent from the baseline are ignored (new benchmarks are
// gated once the baseline is regenerated).
func Compare(base, cur []Result, tol Tolerances) (regressions []Regression, missing []string) {
	byName := make(map[string]Result, len(cur))
	for _, r := range cur {
		byName[r.Name] = r
	}
	for _, b := range base {
		c, ok := byName[b.Name]
		if !ok {
			missing = append(missing, b.Name)
			continue
		}
		if limit := b.NsPerOp * (1 + tol.Ns); c.NsPerOp > limit {
			regressions = append(regressions, Regression{
				Name: b.Name, Metric: "ns/op", Base: b.NsPerOp, Cur: c.NsPerOp, Limit: limit,
			})
		}
		if b.AllocsPerOp >= 0 && c.AllocsPerOp >= 0 {
			if limit := b.AllocsPerOp*(1+tol.Allocs) + tol.AllocSlack; c.AllocsPerOp > limit {
				regressions = append(regressions, Regression{
					Name: b.Name, Metric: "allocs/op", Base: b.AllocsPerOp, Cur: c.AllocsPerOp, Limit: limit,
				})
			}
		}
		extraTol := tol.Extra
		if extraTol == 0 {
			extraTol = tol.Ns
		}
		for unit, bv := range b.Extra {
			cv, ok := c.Extra[unit]
			if !ok {
				// The benchmark stopped reporting a baselined metric: a
				// silent way to lose the wire-bytes gate, so treat it as
				// the metric vanishing entirely.
				missing = append(missing, b.Name+" "+unit)
				continue
			}
			limit := bv * (1 + extraTol)
			worse := cv > limit
			if Benefit(unit) {
				limit = bv * (1 - extraTol)
				worse = cv < limit
			}
			if worse {
				regressions = append(regressions, Regression{
					Name: b.Name, Metric: unit, Base: bv, Cur: cv, Limit: limit,
				})
			}
		}
	}
	return regressions, missing
}
