package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// lint runs the rules over one fixture tree with the given modes on and
// returns the finding count and everything printed.
func lint(t *testing.T, tree string, doc, md, only bool) (int, string) {
	t.Helper()
	var buf bytes.Buffer
	oldDoc, oldMD, oldOnly, oldErr := *docLint, *mdLinks, *testOnly, stderr
	*docLint, *mdLinks, *testOnly, stderr = doc, md, only, &buf
	defer func() { *docLint, *mdLinks, *testOnly, stderr = oldDoc, oldMD, oldOnly, oldErr }()
	bad, err := lintRoots([]string{"testdata/" + tree})
	if err != nil {
		t.Fatalf("%s: %v\n%s", tree, err, buf.String())
	}
	return bad, buf.String()
}

// TestGoodTreePasses is the negative case of every rule at once: snake_case
// metrics with their suffixes, a test reading a metric the tree registers,
// an annotated go statement, package and
// constant docs, resolving links and paths — and under -testonly a method
// reached only through an embedded type's interface, an identifier only
// examples/ calls, a whole-package and a single-identifier allow entry.
func TestGoodTreePasses(t *testing.T) {
	if bad, out := lint(t, "good", true, true, true); bad != 0 {
		t.Fatalf("good tree: %d findings\n%s", bad, out)
	}
}

// TestBadTreeFindings is the positive case of each rule, mode by mode:
// every finding is expected by name, and nothing else is reported.
func TestBadTreeFindings(t *testing.T) {
	always := []string{ // the rules no flag turns off
		`metric "BadName" is not snake_case`,
		`counter "BadName" must end in _total`,
		`histogram "encode_latency" must end in _seconds`,
		`naked go statement in session-path package`,
		// park_test.go, shaped like a test whose counters were deleted.
		`test reads Counter deleted_self_copies_total, which no non-test file registers`,
		`test reads Counter deleted_displaced_copies_total, which no non-test file registers`,
	}
	cases := []struct {
		name          string
		doc, md, only bool
		extra         []string
	}{
		{"naming and goroutines", false, false, false, nil},
		{"doclint", true, false, false, []string{
			`exported constant Limit has no doc comment`,
			`package has no package doc comment`,
		}},
		{"mdlinks", false, true, false, []string{
			`broken relative link "docs/MISSING.md"`,
			`code block runs ./cmd/nope, which is not a directory`,
			`comment cites docs/GONE.md, which does not exist`,
		}},
		{"testonly", false, false, true, []string{
			`fixture/internal/uniserver.OnlyTests has no reference outside _test.go files`,
			`fixture/internal/uniserver.Live has a non-test reference now`,
			`fixture/internal/uniserver.Gone names nothing the lint checks`,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad, out := lint(t, "bad", tc.doc, tc.md, tc.only)
			want := append(always[:len(always):len(always)], tc.extra...)
			if bad != len(want) {
				t.Errorf("%d findings, want %d\n%s", bad, len(want), out)
			}
			for _, msg := range want {
				if !strings.Contains(out, msg) {
					t.Errorf("missing finding %q in\n%s", msg, out)
				}
			}
		})
	}
}

// TestDefaultRegistryReads: every spelling of a default-registry read is
// found with its kind, and a call on another registry or with a computed
// name is not.
func TestDefaultRegistryReads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x_test.go")
	src := `package x

func TestX(t *testing.T) {
	counters := metrics.Default()
	_ = counters.Counter("a_total")
	_ = metrics.Default().Gauge("b")
	_ = metrics.Default().Histogram("c_seconds", nil)
	_ = counter("d_total") + gauge("e")
	_ = private.Counter("f_total")
	_ = counter(name)
}
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, rd := range defaultRegistryReads(path) {
		got = append(got, rd.key)
	}
	want := []string{"Counter a_total", "Gauge b", "Histogram c_seconds", "Counter d_total", "Gauge e"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reads %q, want %q", got, want)
	}
}
