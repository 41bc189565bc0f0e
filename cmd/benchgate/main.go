// Command benchgate is the benchmark-regression gate used by CI and local
// runs. It reads `go test -bench -benchmem` output on stdin and either
//
//	(default)  compares the results against a committed baseline
//	           (BENCH_BASELINE.json) and exits non-zero on regression, or
//	-update    regenerates the baseline file from the measured results.
//
// Typical use:
//
//	go test -run NONE -bench 'E1|E2|HubRoute' -benchtime 100x -benchmem . \
//	    | go run ./cmd/benchgate -tolerance 0.75
//
//	make bench-baseline     # regenerate BENCH_BASELINE.json
//
// ns/op tolerance is generous by default in CI because wall time shifts
// with hardware; allocs/op is machine-independent and gated tightly, which
// is what pins the zero-allocation encode paths at zero. The -slowdown
// flag scales measured ns/op before comparing — a built-in way to
// demonstrate the gate failing (e.g. -slowdown 2 simulates a 2× slowdown).
package main

import (
	"flag"
	"fmt"
	"os"

	"uniint/internal/benchfmt"
)

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_BASELINE.json", "baseline file to compare against or regenerate")
		tolerance    = flag.Float64("tolerance", 0.20, "relative ns/op headroom (0.20 = +20%)")
		allocTol     = flag.Float64("alloc-tolerance", 0.20, "relative allocs/op headroom")
		allocSlack   = flag.Float64("alloc-slack", 2, "absolute allocs/op allowance on top of the relative headroom")
		extraTol     = flag.Float64("extra-tolerance", 0.20, "relative headroom on custom per-op metrics (wirebytes/op, …), which are machine-independent like allocs")
		update       = flag.Bool("update", false, "write the measured results as the new baseline instead of comparing")
		note         = flag.String("note", "", "provenance note stored in the baseline on -update")
		slowdown     = flag.Float64("slowdown", 1.0, "scale measured ns/op before comparing (demo/testing of the gate itself)")
		allowMissing = flag.Bool("allow-missing", false, "do not fail when a baseline benchmark was not measured")
	)
	flag.Parse()

	results, err := benchfmt.ParseGoBench(os.Stdin)
	if err != nil {
		fatal("parse bench output: %v", err)
	}
	if len(results) == 0 {
		fatal("no benchmark results on stdin (run go test -bench ... -benchmem and pipe its output here)")
	}
	if *slowdown != 1.0 {
		for i := range results {
			results[i].NsPerOp *= *slowdown
		}
		fmt.Printf("benchgate: applying synthetic %gx slowdown to measured ns/op\n", *slowdown)
	}

	if *update {
		// The input may contain several runs of the same set (make
		// bench-baseline feeds two): keep the worst observation per
		// benchmark, so the committed ceiling covers the machine's slow
		// mode and a fast run cannot bait the gate into flapping.
		merged := results[:0]
		index := make(map[string]int, len(results))
		for _, r := range results {
			i, seen := index[r.Name]
			if !seen {
				index[r.Name] = len(merged)
				merged = append(merged, r)
				continue
			}
			if r.NsPerOp > merged[i].NsPerOp {
				merged[i].NsPerOp = r.NsPerOp
			}
			if r.AllocsPerOp > merged[i].AllocsPerOp {
				merged[i].AllocsPerOp = r.AllocsPerOp
			}
			if r.BytesPerOp > merged[i].BytesPerOp {
				merged[i].BytesPerOp = r.BytesPerOp
			}
			for unit, v := range r.Extra {
				if merged[i].Extra == nil {
					merged[i].Extra = make(map[string]float64)
				}
				old, seen := merged[i].Extra[unit]
				worse := v > old
				if benchfmt.Benefit(unit) { // the worst benefit is the lowest
					worse = v < old
				}
				if !seen || worse {
					merged[i].Extra[unit] = v
				}
			}
		}
		b := &benchfmt.Baseline{Note: *note, Benchmarks: merged}
		if err := benchfmt.WriteBaseline(*baselinePath, b); err != nil {
			fatal("write baseline: %v", err)
		}
		fmt.Printf("benchgate: wrote %d benchmarks to %s\n", len(merged), *baselinePath)
		return
	}

	base, err := benchfmt.ReadBaseline(*baselinePath)
	if err != nil {
		fatal("read baseline: %v (regenerate with -update / make bench-baseline)", err)
	}
	regs, missing := benchfmt.Compare(base.Benchmarks, results, benchfmt.Tolerances{
		Ns:         *tolerance,
		Allocs:     *allocTol,
		AllocSlack: *allocSlack,
		Extra:      *extraTol,
	})

	fmt.Printf("benchgate: %d measured, %d baselined, ns/op tolerance +%.0f%%, allocs/op tolerance +%.0f%%+%g\n",
		len(results), len(base.Benchmarks), *tolerance*100, *allocTol*100, *allocSlack)
	for _, r := range regs {
		fmt.Printf("REGRESSION  %s\n", r)
	}
	for _, name := range missing {
		fmt.Printf("MISSING     %s (in baseline, not measured)\n", name)
	}
	failed := len(regs) > 0 || (len(missing) > 0 && !*allowMissing)
	if failed {
		fmt.Println("benchgate: FAIL")
		os.Exit(1)
	}
	fmt.Println("benchgate: PASS")
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(2)
}
