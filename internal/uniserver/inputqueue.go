package uniserver

import (
	"sync"
	"time"

	"uniint/internal/metrics"
	"uniint/internal/rfb"
	"uniint/internal/toolkit"
	"uniint/internal/trace"
)

// Input-pipeline instruments (server half). The accounting invariant:
// every event offered to a queue ends in exactly one bucket, so
// input_queued_total == input_dispatched_total + input_coalesced_total
// + input_dropped_total (hard-cap sheds) + input_abandoned_total (still
// queued when the session died) whenever input_queue_depth is zero.
var (
	mInputQueued      = metrics.Default().Counter("input_queued_total")
	mInputCoalesced   = metrics.Default().Counter("input_coalesced_total")
	mInputDispatched  = metrics.Default().Counter("input_dispatched_total")
	mInputOverflow    = metrics.Default().Counter("input_queue_overflow_total")
	mInputDropped     = metrics.Default().Counter("input_dropped_total")
	mInputAbandoned   = metrics.Default().Counter("input_abandoned_total")
	mInputQueueDepth  = metrics.Default().Gauge("input_queue_depth")
	mInputDispatchSec = metrics.Default().Histogram("input_dispatch_seconds", metrics.LatencyBuckets())
	mInputToUpdateSec = metrics.Default().Histogram("input_to_update_seconds", metrics.LatencyBuckets())
)

// inputQueueBound is the per-session depth at which the queue starts
// reclaiming space from pointer moves. Pure moves always collapse to at
// most one entry per run via tail coalescing, so the bound is only ever
// approached by streams of semantic events (key presses, button
// transitions) — which are kept past it (counted as overflow) up to the
// hard cap.
const inputQueueBound = 256

// inputQueueHardCap is the absolute per-session depth limit. Reaching it
// requires thousands of non-coalescable events against a dispatcher that
// never drains — a hostile or broken client — so further events are
// dropped (and counted in input_dropped_total) rather than letting one
// session grow memory without bound.
const inputQueueHardCap = 4096

// inputEvent is one universal input event parked between the protocol
// read loop and the dispatch task.
type inputEvent struct {
	enq     int64  // time.Now().UnixNano() when put
	trace   uint64 // sampled interaction id (0: untraced)
	key     rfb.KeyEvent
	ptr     rfb.PointerEvent
	pointer bool
	move    bool // pointer event that changes no buttons (coalescable)
}

// inputQueue is the bounded per-session input queue decoupling event
// dispatch from the protocol read loop. Enqueue never blocks: under
// backpressure (a slow home app or HAVi round-trip holding the display
// lock) pointer moves coalesce latest-wins, so the read loop keeps
// draining framebuffer requests no matter how stalled dispatch is.
type inputQueue struct {
	mu    sync.Mutex
	buf   []inputEvent
	spare []inputEvent // recycled dispatch storage (ping-pong)
}

// put queues one event. A pure pointer move lands in one of three ways:
// replacing a pure-move tail with the same mask (the common backpressure
// coalesce), appending, or — at the bound — evicting the oldest pure move
// in the queue (dropping an intermediate position is semantically the
// same collapse tail coalescing performs). Key events and button
// transitions are appended past the bound if they must (counted as
// overflow) until the hard cap, where the event is dropped and counted.
func (q *inputQueue) put(ev inputEvent) {
	mInputQueued.Inc()
	q.mu.Lock()
	if q.buf == nil {
		// Reclaim recycled storage left by a previous take/recycle pair so
		// the steady-state put path stops allocating.
		q.buf = q.spare[:0]
		q.spare = nil
	}
	if ev.move && len(q.buf) > 0 {
		if t := &q.buf[len(q.buf)-1]; t.pointer && t.move && t.ptr.Buttons == ev.ptr.Buttons {
			// Keep the tail's put time: the coalesced entry stands in
			// for the whole run, and latency is measured from its start.
			// A traced position folding into an untraced tail hands its
			// id over, so the surviving entry carries the trace.
			t.ptr = ev.ptr
			if t.trace == 0 {
				t.trace = ev.trace
			}
			q.mu.Unlock()
			mInputCoalesced.Inc()
			return
		}
	}
	evicted := false
	if len(q.buf) >= inputQueueBound {
		// Reclaim space by shedding the oldest *historical* position run —
		// never a transition, a key, or the pointer's latest position.
		evicted = q.evictMoveLocked()
		if !evicted {
			if len(q.buf) >= inputQueueHardCap {
				// All-semantic queue at the absolute limit: shed the
				// event rather than grow without bound. The old
				// synchronous path would have stalled the read loop here;
				// a counted drop keeps the session (and its framebuffer
				// requests) alive instead.
				q.mu.Unlock()
				mInputDropped.Inc()
				return
			}
			mInputOverflow.Inc()
		}
	}
	q.buf = append(q.buf, ev)
	q.mu.Unlock()
	if evicted {
		mInputCoalesced.Inc()
	} else {
		mInputQueueDepth.Inc()
	}
}

// evictMoveLocked removes the oldest pure-move entry, sparing the most
// recent one: the pointer's latest known position always survives even
// under bound pressure — only historical hover/drag runs (positions the
// stream has already moved past) are shed. Reports whether an entry was
// evicted. q.mu must be held.
func (q *inputQueue) evictMoveLocked() bool {
	oldest, newest := -1, -1
	for i := range q.buf {
		if q.buf[i].pointer && q.buf[i].move {
			if oldest < 0 {
				oldest = i
			}
			newest = i
		}
	}
	if oldest < 0 || oldest == newest {
		return false
	}
	copy(q.buf[oldest:], q.buf[oldest+1:])
	q.buf = q.buf[:len(q.buf)-1]
	return true
}

// preload seeds the queue with events carried through a park window.
// They were already counted into input_queued_total when they first
// entered a queue, so only the depth gauge moves; they settle into
// dispatched (on resume) or abandoned (at expiry) like any queued event.
func (q *inputQueue) preload(events []inputEvent) {
	if len(events) == 0 {
		return
	}
	q.mu.Lock()
	if len(q.buf) == 0 {
		q.buf = events
	} else {
		q.buf = append(events, q.buf...)
	}
	q.mu.Unlock()
	mInputQueueDepth.Add(int64(len(events)))
}

// take drains the queue into recycled storage. Hand the batch back with
// recycle once dispatched so the steady-state path stops allocating.
func (q *inputQueue) take() []inputEvent {
	q.mu.Lock()
	out := q.buf
	if q.spare != nil {
		q.buf = q.spare[:0]
		q.spare = nil
	} else {
		q.buf = nil
	}
	q.mu.Unlock()
	if len(out) > 0 {
		mInputQueueDepth.Add(int64(-len(out)))
	}
	return out
}

// recycle returns dispatch storage for the next take.
func (q *inputQueue) recycle(batch []inputEvent) {
	q.mu.Lock()
	if q.spare == nil {
		q.spare = batch[:0]
	}
	q.mu.Unlock()
}

// dispatchTurn is the dispatch task's turn: it owns input injection for
// one session, draining the queue into the window system so a stalled
// widget callback can never block the protocol read loop (the input-side
// sibling of writerTurn). One turn dispatches one drained batch; events
// queued mid-turn kick the task again and dispatch on the next turn.
func (c *session) dispatchTurn() {
	// Events still queued when the session dies are drained by teardown
	// after the task is stopped (reads are over by then, so no put races
	// the final drain): they carry into the detach lot for replay on
	// resume, or count as abandoned when the server is closing.
	batch := c.inq.take()
	if len(batch) == 0 {
		return
	}
	// Stamp the oldest outstanding input so the writer can close the
	// input→damage→update latency loop when the resulting
	// FramebufferUpdate ships.
	c.inputMark.CompareAndSwap(0, batch[0].enq)
	for i := range batch {
		ev := &batch[i]
		t0 := int64(0)
		if ev.trace != 0 {
			t0 = time.Now().UnixNano()
			// The queue span: read-loop put to dispatcher pickup.
			// For an event replayed across a park window it straddles
			// the detach (the park span explains it).
			trace.Record(ev.trace, trace.StageQueue, ev.enq, t0)
		}
		if ev.pointer {
			c.srv.display.InjectPointerTraced(int(ev.ptr.X), int(ev.ptr.Y), ev.ptr.Buttons, ev.trace)
		} else {
			c.srv.display.InjectKeyTraced(ev.key.Down, toolkit.Key(ev.key.Key), ev.trace)
		}
		mInputDispatched.Inc()
		now := time.Now().UnixNano()
		if ev.trace != 0 {
			trace.Record(ev.trace, trace.StageDispatch, t0, now)
			mInputDispatchSec.ObserveExemplar(float64(now-ev.enq)/1e9, ev.trace)
		} else {
			mInputDispatchSec.Observe(float64(now-ev.enq) / 1e9)
		}
	}
	c.inq.recycle(batch)
}
