package havi

import (
	"sync"

	"uniint/internal/sched"
)

// dispatcher is the FIFO executor behind the message system, registry
// watches and event manager: a mutex-guarded queue of functions that one
// task drains on the process pool, so a home costs this struct and no
// goroutine. One ordered queue gives the middleware a deterministic
// delivery order. The pool's few workers serve every home and session, so
// a posted function (a HAVi handler) must not block on a peer, and
// waitIdle must not run on a pool turn; stop may (see Network.Close).
type dispatcher struct {
	task *sched.Task

	mu      sync.Mutex
	idle    sync.Cond // broadcast when a drain ends
	queue   []func()
	spare   []func() // the last drained batch's storage (ping-pong)
	running bool     // a batch is executing
	closed  bool
}

func newDispatcher() *dispatcher {
	d := &dispatcher{}
	d.idle.L = &d.mu
	d.task = sched.SharedPool().NewTask(d.drain)
	return d
}

// drain is the task's turn: it runs queued functions in order until the
// queue is empty, so what a handler posts (the FCM change event a Send
// causes) runs in the same turn.
func (d *dispatcher) drain() {
	d.mu.Lock()
	for len(d.queue) > 0 {
		batch := d.queue
		d.queue, d.spare = d.spare[:0], nil
		d.running = true
		d.mu.Unlock()
		for i, fn := range batch {
			batch[i] = nil
			fn()
		}
		d.mu.Lock()
		d.spare = batch[:0]
	}
	d.running = false
	d.idle.Broadcast()
	d.mu.Unlock()
}

// post enqueues fn; returns false when the dispatcher is closed.
func (d *dispatcher) post(fn func()) bool {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return false
	}
	d.queue = append(d.queue, fn)
	d.mu.Unlock()
	d.task.Kick()
	return true
}

// waitIdle blocks until every posted function has finished executing.
// Functions posted while waiting are also waited for.
func (d *dispatcher) waitIdle() {
	d.mu.Lock()
	for len(d.queue) > 0 || d.running {
		d.idle.Wait()
	}
	d.mu.Unlock()
}

// stop refuses further posts and runs what is queued: the task stops
// (waiting out an in-flight turn), then the caller drains the rest, so
// stop never waits for a free worker.
func (d *dispatcher) stop() {
	d.mu.Lock()
	closed := d.closed
	d.closed = true
	d.mu.Unlock()
	if closed {
		return
	}
	d.task.Stop()
	d.drain()
}
