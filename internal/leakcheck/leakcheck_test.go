package leakcheck

import (
	"fmt"
	"strings"
	"testing"

	"uniint/internal/sched"
)

// recorder is a testing.TB whose cleanups and failures the test runs and
// reads itself.
type recorder struct {
	testing.TB
	cleanups []func()
	failure  string
}

func (r *recorder) Helper()                           {}
func (r *recorder) Cleanup(f func())                  { r.cleanups = append(r.cleanups, f) }
func (r *recorder) Errorf(format string, args ...any) { r.failure = fmt.Sprintf(format, args...) }

// TestCheckReadsStacks: a goroutine started during the test that runs this
// module's code (a pool worker mid-turn) fails the check at once, without
// waiting for it to exit; the test's own goroutine does not. Once the
// owner has joined it, the same check passes.
func TestCheckReadsStacks(t *testing.T) {
	r := &recorder{TB: t}
	Check(r, 0)
	pool := sched.NewPool(1) // started after the baseline
	block, running := make(chan struct{}), make(chan struct{})
	pool.NewTask(func() { close(running); <-block }).Kick()
	<-running
	go func() { <-block }() // the test's own
	r.cleanups[0]()
	if !strings.HasPrefix(r.failure, "goroutine leak: 1 goroutines") || !strings.Contains(r.failure, "sched.(*Task).run(") {
		t.Fatalf("want exactly the busy worker reported, got:\n%s", r.failure)
	}
	close(block)
	pool.Close()
	r.failure = ""
	r.cleanups[0]()
	if r.failure != "" {
		t.Fatalf("joined pool still reported:\n%s", r.failure)
	}
}
