package benchfmt

import (
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: uniint
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkE2Encoding/raw/flat/full-8         	     100	   4236088 ns/op	   1228800 bytes/update	   61446 B/op	       0 allocs/op
BenchmarkE2Encoding/rre/flat/full-8         	     100	     92162 ns/op	        12 bytes/update	       0 B/op	       0 allocs/op
BenchmarkHubRoute/16-homes-8                	 1000000	        25.42 ns/op	       0 B/op	       0 allocs/op
BenchmarkNoMem                              	     500	      1000 ns/op
BenchmarkSessionFootprint-8                 	     100	  11333521 ns/op	    121000 bytes/session	         0 goroutines/session	31017737 B/op	   12843 allocs/op
PASS
ok  	uniint	12.3s
`

func TestParseGoBench(t *testing.T) {
	res, err := ParseGoBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("parsed %d results, want 5: %+v", len(res), res)
	}
	if res[0].Name != "BenchmarkE2Encoding/raw/flat/full" {
		t.Errorf("cpu suffix not stripped: %q", res[0].Name)
	}
	if res[0].NsPerOp != 4236088 || res[0].AllocsPerOp != 0 || res[0].BytesPerOp != 61446 {
		t.Errorf("metrics misparsed: %+v", res[0])
	}
	if res[2].Name != "BenchmarkHubRoute/16-homes" {
		t.Errorf("subbench name mangled: %q", res[2].Name)
	}
	if res[2].NsPerOp != 25.42 {
		t.Errorf("fractional ns/op misparsed: %v", res[2].NsPerOp)
	}
	if res[3].AllocsPerOp != -1 || res[3].BytesPerOp != -1 {
		t.Errorf("missing -benchmem columns should be -1: %+v", res[3])
	}
	// Per-session footprint metrics are gated extras, like per-op ones;
	// non-/op, non-/session units (bytes/update above) stay ungated.
	if res[4].Extra["bytes/session"] != 121000 || res[4].Extra["goroutines/session"] != 0 {
		t.Errorf("per-session extras misparsed: %+v", res[4].Extra)
	}
	if _, ok := res[4].Extra["goroutines/session"]; !ok {
		t.Errorf("zero-valued extra dropped: %+v", res[4].Extra)
	}
	if len(res[0].Extra) != 0 {
		t.Errorf("bytes/update should not be captured as an extra: %+v", res[0].Extra)
	}
}

func TestCanonical(t *testing.T) {
	cases := map[string]string{
		"BenchmarkFoo-8":                     "BenchmarkFoo",
		"BenchmarkFoo":                       "BenchmarkFoo",
		"BenchmarkHubRoute/16-homes-4":       "BenchmarkHubRoute/16-homes",
		"BenchmarkE5Compose/8-appliances-16": "BenchmarkE5Compose/8-appliances",
	}
	for in, want := range cases {
		if got := Canonical(in); got != want {
			t.Errorf("Canonical(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCompare(t *testing.T) {
	base := []Result{
		{Name: "A", NsPerOp: 1000, AllocsPerOp: 0},
		{Name: "B", NsPerOp: 1000, AllocsPerOp: 10},
		{Name: "Gone", NsPerOp: 5, AllocsPerOp: 0},
	}
	cur := []Result{
		{Name: "A", NsPerOp: 2100, AllocsPerOp: 0},  // 2.1× slower: ns regression
		{Name: "B", NsPerOp: 1100, AllocsPerOp: 40}, // allocs regression
		{Name: "New", NsPerOp: 1, AllocsPerOp: 0},   // not in baseline: ignored
	}
	tol := Tolerances{Ns: 0.75, Allocs: 0.20, AllocSlack: 2}
	regs, missing := Compare(base, cur, tol)
	if len(regs) != 2 {
		t.Fatalf("regressions = %+v, want 2", regs)
	}
	if regs[0].Name != "A" || regs[0].Metric != "ns/op" {
		t.Errorf("first regression = %+v", regs[0])
	}
	if regs[1].Name != "B" || regs[1].Metric != "allocs/op" {
		t.Errorf("second regression = %+v", regs[1])
	}
	if len(missing) != 1 || missing[0] != "Gone" {
		t.Errorf("missing = %v", missing)
	}
}

func TestCompareZeroAllocBaselineStaysPinned(t *testing.T) {
	base := []Result{{Name: "Z", NsPerOp: 100, AllocsPerOp: 0}}
	// AllocSlack 0: a single alloc on a zero-alloc baseline must fail.
	regs, _ := Compare(base, []Result{{Name: "Z", NsPerOp: 100, AllocsPerOp: 1}},
		Tolerances{Ns: 0.2, Allocs: 0.2, AllocSlack: 0})
	if len(regs) != 1 {
		t.Fatalf("zero-alloc pin broken: %+v", regs)
	}
}

// TestCompareExtraDirections pins which way each custom metric is gated:
// costs against a ceiling, the benefit units against a floor, and a zero
// baseline in either direction.
func TestCompareExtraDirections(t *testing.T) {
	tol := Tolerances{Ns: 0.75, Allocs: 0.2, Extra: 0.5}
	cases := []struct {
		unit      string
		base, cur float64
		fails     bool
	}{
		// Costs: more is worse.
		{"wirebytes/op", 100, 149, false},
		{"wirebytes/op", 100, 151, true},
		{"wirebytes/op", 100, 0, false},
		{"wirebytes/op", 0, 1, true}, // a zero-cost baseline stays pinned
		// Benefits: less is worse.
		{"coalesced/op", 61, 61, false},
		{"coalesced/op", 61, 500, false},
		{"coalesced/op", 61, 31, false},
		{"coalesced/op", 61, 30, true},
		{"coalesced/op", 61, 0, true},
		{"coalesced/op", 0, 0, false},
		{"coalesced/op", 0, 12, false}, // a zero floor passes any gain
		{"resumes/op", 1, 1, false},
		{"resumes/op", 1, 0, true},
		{"resumes/op", 0, 1, false},
	}
	for _, c := range cases {
		base := []Result{{Name: "X", NsPerOp: 1, AllocsPerOp: -1, Extra: map[string]float64{c.unit: c.base}}}
		cur := []Result{{Name: "X", NsPerOp: 1, AllocsPerOp: -1, Extra: map[string]float64{c.unit: c.cur}}}
		regs, missing := Compare(base, cur, tol)
		if len(missing) != 0 {
			t.Fatalf("%s %g→%g: missing %v", c.unit, c.base, c.cur, missing)
		}
		if failed := len(regs) == 1 && regs[0].Metric == c.unit; failed != c.fails || len(regs) > 1 {
			t.Errorf("%s %g→%g: regressions %v, want failure = %v", c.unit, c.base, c.cur, regs, c.fails)
		}
	}
	if Benefit("wirebytes/op") || !Benefit("coalesced/op") || !Benefit("resumes/op") {
		t.Error("the benefit units are exactly coalesced/op and resumes/op")
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.json")
	in := &Baseline{
		Note: "test",
		Benchmarks: []Result{
			{Name: "B", NsPerOp: 2, AllocsPerOp: 0, BytesPerOp: -1},
			{Name: "A", NsPerOp: 1, AllocsPerOp: 3, BytesPerOp: 4},
		},
	}
	if err := WriteBaseline(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema != Schema || len(out.Benchmarks) != 2 {
		t.Fatalf("round trip: %+v", out)
	}
	if out.Benchmarks[0].Name != "A" {
		t.Error("baseline not sorted by name")
	}
}
