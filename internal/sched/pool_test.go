package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPoolRunsKickedTask(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var ran atomic.Int32
	task := p.NewTask(func() { ran.Add(1) })
	task.Kick()
	waitFor(t, "turn to run", func() bool { return ran.Load() == 1 })
}

func TestTaskNeverRunsConcurrently(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	var inTurn, maxInTurn, turns atomic.Int32
	task := p.NewTask(func() {
		n := inTurn.Add(1)
		if m := maxInTurn.Load(); n > m {
			maxInTurn.CompareAndSwap(m, n)
		}
		time.Sleep(100 * time.Microsecond)
		inTurn.Add(-1)
		turns.Add(1)
	})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				task.Kick()
			}
		}()
	}
	wg.Wait()
	waitFor(t, "queue to drain", func() bool { return p.Queued() == 0 })
	task.Stop()
	if got := maxInTurn.Load(); got != 1 {
		t.Fatalf("turn ran concurrently with itself: max in-turn = %d", got)
	}
	if turns.Load() == 0 {
		t.Fatal("no turns ran")
	}
}

func TestKicksCoalesceWhileQueued(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	gate := make(chan struct{})
	var blockerIn = make(chan struct{})
	// Pin the single worker so the task under test stays queued.
	p.NewTask(func() { close(blockerIn); <-gate }).Kick()
	<-blockerIn

	var turns atomic.Int32
	task := p.NewTask(func() { turns.Add(1) })
	for i := 0; i < 100; i++ {
		task.Kick()
	}
	if got := p.Queued(); got != 1 {
		t.Fatalf("100 kicks queued the task %d times, want 1", got)
	}
	close(gate)
	waitFor(t, "coalesced turn", func() bool { return turns.Load() > 0 })
	time.Sleep(10 * time.Millisecond)
	if got := turns.Load(); got != 1 {
		t.Fatalf("coalesced kicks ran %d turns, want 1", got)
	}
}

func TestKickDuringTurnReruns(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	var turns atomic.Int32
	var task *Task
	task = p.NewTask(func() {
		if turns.Add(1) == 1 {
			entered <- struct{}{}
			<-release
		}
	})
	task.Kick()
	<-entered
	task.Kick() // lands mid-turn: must re-queue, not be lost
	task.Kick() // and coalesce with the one above
	close(release)
	waitFor(t, "rerun turn", func() bool { return turns.Load() == 2 })
	time.Sleep(10 * time.Millisecond)
	if got := turns.Load(); got != 2 {
		t.Fatalf("mid-turn kicks ran %d turns total, want 2", got)
	}
}

func TestStopWaitsForInFlightTurn(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	entered := make(chan struct{})
	release := make(chan struct{})
	var done atomic.Bool
	task := p.NewTask(func() {
		close(entered)
		<-release
		done.Store(true)
	})
	task.Kick()
	<-entered
	go func() {
		time.Sleep(5 * time.Millisecond)
		close(release)
	}()
	task.Stop()
	if !done.Load() {
		t.Fatal("Stop returned while the turn was still running")
	}
	task.Kick() // must be a no-op after Stop
	time.Sleep(5 * time.Millisecond)
	if p.Queued() != 0 {
		t.Fatal("kick after Stop enqueued the task")
	}
}

// TestPoolGoRunsEachOnce: one-shot tasks, each kicked once, each run once.
func TestPoolGoRunsEachOnce(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var ran atomic.Int32
	for i := 0; i < 64; i++ {
		p.NewTask(func() { ran.Add(1) }).Kick()
	}
	waitFor(t, "one-shots", func() bool { return ran.Load() == 64 })
}

func TestPoolCloseDrainsQueue(t *testing.T) {
	p := NewPool(2)
	var ran atomic.Int32
	for i := 0; i < 32; i++ {
		p.NewTask(func() { ran.Add(1) }).Kick()
	}
	p.Close()
	if got := ran.Load(); got != 32 {
		t.Fatalf("Close drained %d of 32 queued one-shots", got)
	}
	p.Close() // idempotent
}

func TestDefaultWorkersFloor(t *testing.T) {
	if DefaultWorkers() < 4 {
		t.Fatalf("DefaultWorkers() = %d, want >= 4", DefaultWorkers())
	}
	p := NewPool(0)
	defer p.Close()
	if p.Workers() != DefaultWorkers() {
		t.Fatalf("NewPool(0).Workers() = %d, want %d", p.Workers(), DefaultWorkers())
	}
}
