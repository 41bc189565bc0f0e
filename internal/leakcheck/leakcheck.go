// Package leakcheck is a dependency-free goroutine-leak assertion for
// tests. Close means joined: a Close returns once the goroutines and timer
// callbacks its owner started have, and Check reads stacks to prove it,
// with no settle window. A goroutine started during the test fails it if
// it runs, or was created by, a non-test file of the module, unless it is
// an idle sched pool worker or the test's own. A fired timer callback that
// would only find its owner closed counts: nothing orders that tail before
// the owner's next use. A goroutine past its join signal may still be
// returning, so when no leak is busy, Check yields once and reads again.
// Assert counts goroutines: a budget, not a leak.
package leakcheck

import (
	"maps"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// moduleRoot prefixes every file of this module as stack traces print it:
// an absolute directory, or the module path under -trimpath.
var moduleRoot = func() string {
	_, file, _, _ := runtime.Caller(0) // <root>/internal/leakcheck/leakcheck.go
	return filepath.Dir(filepath.Dir(filepath.Dir(file))) + "/"
}()

// idleWorker is the frame every idle sched pool worker waits in.
const idleWorker = "uniint/internal/sched.(*Pool).pop("

// Check records the goroutines alive now. Its cleanup, last when Check is
// called first, fails the test if more than slack started since are owned.
func Check(t testing.TB, slack int) {
	t.Helper()
	base := dump()
	t.Cleanup(func() {
		leaked := dump()
		maps.DeleteFunc(leaked, func(id, g string) bool { return base[id] != "" || !owned(g) })
		if len(leaked) > 0 && !slices.ContainsFunc(slices.Collect(maps.Values(leaked)), busy) {
			runtime.Gosched()
			now := dump()
			maps.DeleteFunc(leaked, func(id, _ string) bool { return now[id] == "" })
		}
		if len(leaked) > slack {
			t.Errorf("goroutine leak: %d goroutines started during the test run its code after cleanup (slack %d)\n%s",
				len(leaked), slack, strings.Join(slices.Collect(maps.Values(leaked)), "\n\n"))
		}
	})
}

// owned reports whether goroutine g has a frame, or its creator, in a
// non-test file of the module ("\t<file>:<line>"), and is no idle worker.
func owned(g string) bool {
	if strings.Contains(g, idleWorker) {
		return false
	}
	for _, line := range strings.Split(g, "\n") {
		file, ok := strings.CutPrefix(line, "\t")
		if ok && strings.HasPrefix(file, moduleRoot) && !strings.Contains(file, "_test.go:") {
			return true
		}
	}
	return false
}

// busy reports whether goroutine g does more than return after its join
// signal: it waits ("goroutine 7 [chan receive]:"), or its innermost call
// is neither owned (non-test module code) nor its wg.Done, close or exit.
func busy(g string) bool {
	state, lines := strings.Fields(g)[2], strings.SplitN(g, "\n", 4)
	returning := owned(strings.Join(lines[:3], "\n")) || strings.HasPrefix(lines[1], "runtime.goexit") ||
		strings.Contains(g, "sync.(*WaitGroup).Done(") || strings.Contains(g, "runtime.closechan(")
	return !returning || !strings.HasPrefix(state, "[running") && !strings.HasPrefix(state, "[runnable")
}

// dump returns every goroutine's stack, by id.
func dump() map[string]string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for ; n == len(buf); n = runtime.Stack(buf, true) {
		buf = make([]byte, 2*len(buf))
	}
	gs := map[string]string{}
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		gs[strings.Fields(g)[1]] = g
	}
	return gs
}

// Assert verifies, mid-test, that at most limit goroutines run — a budget,
// not a leak — retrying for up to 5 s past a just-finished turn's handoff.
func Assert(t testing.TB, limit int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for ; n > limit && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(2 * time.Millisecond)
	}
	if n > limit {
		t.Errorf("%s: %d goroutines, want <= %d\n--- all stacks ---\n%s",
			what, n, limit, strings.Join(slices.Collect(maps.Values(dump())), "\n\n"))
	}
}
