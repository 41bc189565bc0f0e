package core

import "uniint/internal/rfb"

// maxInputBatch caps how many universal events accumulate before a flush
// is forced, so a device that produces events faster than the transport
// drains them still ships regularly instead of growing the batch forever.
const maxInputBatch = 64

// pendingEvent is one universal event waiting in the flusher, tagged with
// whether it is a pure pointer move — a pointer event whose button mask
// equals the mask of the event stream just before it. Only pure moves are
// coalescable; button transitions and key events always survive.
type pendingEvent struct {
	ev   rfb.InputEvent
	move bool
}

// inputFlusher batches translated universal events so a burst becomes one
// transport write, coalescing consecutive pointer moves while it does:
// a run of pure moves collapses to its final position. It is not
// self-locking — the proxy serializes access under inMu (the same mutex
// that forms the select/detach barrier).
type inputFlusher struct {
	pend []pendingEvent
	wire []rfb.InputEvent // flush scratch, reused every flush
	mask uint8            // button mask after the last buffered pointer event

	coalesced int64 // moves absorbed since the last flush
}

// add buffers one universal event. A pointer event that changes no
// buttons ("pure move") replaces a pure-move tail with the same mask —
// the coalescing rule: intermediate positions vanish, the final position,
// every button transition and every key event survive, in order. A
// nonzero tid tags the event as a sampled interaction; the tag survives
// coalescing (an untraced tail absorbing a traced move adopts its id, so
// the position that ultimately ships carries the trace).
func (f *inputFlusher) add(ue UniEvent, tid uint64) {
	if !ue.IsPointer {
		f.pend = append(f.pend, pendingEvent{ev: rfb.InputEvent{Key: ue.Key, TraceID: tid}})
		return
	}
	move := ue.Pointer.Buttons == f.mask
	f.mask = ue.Pointer.Buttons
	if move && len(f.pend) > 0 {
		if t := &f.pend[len(f.pend)-1]; t.ev.IsPointer && t.move && t.ev.Pointer.Buttons == ue.Pointer.Buttons {
			t.ev.Pointer = ue.Pointer
			if t.ev.TraceID == 0 {
				t.ev.TraceID = tid
			}
			f.coalesced++
			return
		}
	}
	f.pend = append(f.pend, pendingEvent{
		ev:   rfb.InputEvent{IsPointer: true, Pointer: ue.Pointer, TraceID: tid},
		move: move,
	})
}

// full reports whether the batch has reached the forced-flush threshold.
func (f *inputFlusher) full() bool { return len(f.pend) >= maxInputBatch }

// flush transmits the buffered events as one batched write and resets the
// buffer. It returns how many events were attempted and how many moves
// were coalesced away since the previous flush; on error the attempted
// events are lost (the connection is going down) and the buffer is still
// reset so a reconnecting caller starts clean.
func (f *inputFlusher) flush(c *rfb.ClientConn) (sent, coalesced int64, err error) {
	coalesced = f.coalesced
	f.coalesced = 0
	if len(f.pend) == 0 {
		return 0, coalesced, nil
	}
	f.wire = f.wire[:0]
	for i := range f.pend {
		f.wire = append(f.wire, f.pend[i].ev)
	}
	sent = int64(len(f.wire))
	f.pend = f.pend[:0]
	err = c.WriteEvents(f.wire)
	return sent, coalesced, err
}
