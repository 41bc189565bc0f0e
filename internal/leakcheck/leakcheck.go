// Package leakcheck is a dependency-free goroutine-leak assertion for
// tests: snapshot the goroutine count at the start, verify at cleanup
// that it settled back. The budgeted event runtime's core claim — worker
// count is a process budget, session count is free — is only credible if
// teardown provably returns to baseline, so the runtime's tests register
// this on every server/hub lifecycle.
package leakcheck

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// settleTimeout bounds how long the cleanup waits for goroutines that are
// legitimately mid-exit (pool workers joining, a wheel driver noticing an
// empty wheel) before declaring a leak.
const settleTimeout = 5 * time.Second

// Check records the current goroutine count and registers a cleanup that
// fails the test if the count has not returned to that baseline (within
// slack) by the end. Call it before constructing the system under test.
//
// slack absorbs goroutines the test legitimately leaves behind. Pass 0 for
// strict checks — the process pool (sched.SharedPool) starts at package
// init, so its workers are already in the baseline.
func Check(t testing.TB, slack int) {
	t.Helper()
	base := settledCount()
	t.Cleanup(func() {
		deadline := time.Now().Add(settleTimeout)
		var n int
		for {
			n = runtime.NumGoroutine()
			if n <= base+slack {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d at cleanup, baseline %d (slack %d)\n%s",
			n, base, slack, stacks())
	})
}

// Assert verifies, mid-test, that the current goroutine count is at most
// limit — the "goroutines independent of session count" check. It retries
// briefly so a just-finished turn's worker handoff does not flake it.
func Assert(t testing.TB, limit int, what string) {
	t.Helper()
	deadline := time.Now().Add(settleTimeout)
	var n int
	for {
		n = runtime.NumGoroutine()
		if n <= limit {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Errorf("%s: %d goroutines, want <= %d\n%s", what, n, limit, stacks())
}

// settledCount samples the goroutine count after letting transient
// goroutines from earlier tests finish exiting.
func settledCount() int {
	prev := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(2 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n >= prev {
			return n
		}
		prev = n
	}
	return prev
}

func stacks() string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return fmt.Sprintf("--- all stacks ---\n%s", buf[:n])
}
