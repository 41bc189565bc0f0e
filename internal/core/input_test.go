package core

import (
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"uniint/internal/rfb"
)

// semantic extracts the events coalescing must never lose: every key
// event and every button transition, in order, with payload. prevMask
// tracks pointer-mask continuity from the start of the stream.
func semantic(evs []rfb.InputEvent) []rfb.InputEvent {
	var out []rfb.InputEvent
	mask := uint8(0)
	for _, ev := range evs {
		if !ev.IsPointer {
			out = append(out, ev)
			continue
		}
		if ev.Pointer.Buttons != mask {
			out = append(out, ev)
		}
		mask = ev.Pointer.Buttons
	}
	return out
}

func toWire(in []UniEvent) []rfb.InputEvent {
	out := make([]rfb.InputEvent, 0, len(in))
	for _, ue := range in {
		out = append(out, rfb.InputEvent{IsPointer: ue.IsPointer, Pointer: ue.Pointer, Key: ue.Key})
	}
	return out
}

func lastPointer(evs []rfb.InputEvent) (rfb.PointerEvent, bool) {
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].IsPointer {
			return evs[i].Pointer, true
		}
	}
	return rfb.PointerEvent{}, false
}

// isSubsequence reports whether sub appears within full in order.
func isSubsequence(sub, full []rfb.InputEvent) bool {
	j := 0
	for i := 0; i < len(full) && j < len(sub); i++ {
		if full[i] == sub[j] {
			j++
		}
	}
	return j == len(sub)
}

// TestFlusherCoalescingProperties is the coalescing property test:
// randomized event streams (pure-move floods, button transitions, key
// events) through the flusher must preserve every key event and every
// button transition in order, keep the final pointer position, emit only
// events that were in the input (a subsequence), and account for exactly
// the dropped moves in the coalesced counter.
func TestFlusherCoalescingProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		var f inputFlusher
		var in []UniEvent
		mask := uint8(0)
		n := rng.Intn(80) + 1
		for i := 0; i < n; i++ {
			switch rng.Intn(10) {
			case 0, 1: // key event
				in = append(in, UniEvent{Key: rfb.KeyEvent{
					Down: rng.Intn(2) == 0, Key: uint32('a' + rng.Intn(26)),
				}})
			case 2: // button transition
				mask ^= 1 << uint(rng.Intn(3))
				in = append(in, PointerTo(rng.Intn(640), rng.Intn(480), mask))
			default: // pure move (flood material)
				in = append(in, PointerTo(rng.Intn(640), rng.Intn(480), mask))
			}
		}
		for _, ue := range in {
			f.add(ue, 0)
		}
		out := make([]rfb.InputEvent, 0, len(f.pend))
		for i := range f.pend {
			out = append(out, f.pend[i].ev)
		}
		wireIn := toWire(in)

		wantSem := semantic(wireIn)
		gotSem := semantic(out)
		if len(wantSem) != len(gotSem) {
			t.Fatalf("trial %d: semantic events %d -> %d\nin:  %+v\nout: %+v",
				trial, len(wantSem), len(gotSem), wireIn, out)
		}
		for i := range wantSem {
			if wantSem[i] != gotSem[i] {
				t.Fatalf("trial %d: semantic event %d: want %+v got %+v",
					trial, i, wantSem[i], gotSem[i])
			}
		}
		if wantP, ok := lastPointer(wireIn); ok {
			gotP, gok := lastPointer(out)
			if !gok || gotP != wantP {
				t.Fatalf("trial %d: final position lost: want %+v got %+v ok=%v",
					trial, wantP, gotP, gok)
			}
		}
		if !isSubsequence(out, wireIn) {
			t.Fatalf("trial %d: output is not a subsequence of input\nin:  %+v\nout: %+v",
				trial, wireIn, out)
		}
		if int(f.coalesced)+len(out) != len(in) {
			t.Fatalf("trial %d: accounting: coalesced %d + out %d != in %d",
				trial, f.coalesced, len(out), len(in))
		}
	}
}

// recordingHandler collects events arriving at a raw protocol server.
type recordingHandler struct {
	mu  sync.Mutex
	evs []rfb.InputEvent
}

func (h *recordingHandler) KeyEvent(ev rfb.KeyEvent) {
	h.mu.Lock()
	h.evs = append(h.evs, rfb.InputEvent{Key: ev})
	h.mu.Unlock()
}

func (h *recordingHandler) PointerEvent(ev rfb.PointerEvent) {
	h.mu.Lock()
	h.evs = append(h.evs, rfb.InputEvent{IsPointer: true, Pointer: ev})
	h.mu.Unlock()
}

func (h *recordingHandler) UpdateRequest(rfb.UpdateRequest) {}
func (h *recordingHandler) CutText(string)                  {}

func (h *recordingHandler) snapshot() []rfb.InputEvent {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]rfb.InputEvent, len(h.evs))
	copy(out, h.evs)
	return out
}

// wireClient builds a handshaked ClientConn against a recording server.
func wireClient(t *testing.T) (*rfb.ClientConn, *recordingHandler) {
	t.Helper()
	sc, cc := net.Pipe()
	h := &recordingHandler{}
	go func() {
		s, err := rfb.NewEdgeServerConn(sc, 640, 480, "flush test", nil)
		if err != nil {
			return
		}
		_ = s.Serve(h)
	}()
	c, err := rfb.Dial(cc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, h
}

// TestFlusherMaskContinuityAcrossFlushes pins that pure-move detection
// carries the button mask across flush boundaries: a drag continued in
// the next batch still coalesces, and the release transition after it
// still survives.
func TestFlusherMaskContinuityAcrossFlushes(t *testing.T) {
	c, h := wireClient(t)
	var f inputFlusher

	f.add(PointerTo(10, 10, 1), 0) // press (transition 0->1)
	f.add(PointerTo(20, 10, 1), 0) // drag move
	f.add(PointerTo(30, 10, 1), 0) // drag move, coalesces with previous
	sent, coalesced, err := f.flush(c)
	if err != nil || sent != 2 || coalesced != 1 {
		t.Fatalf("first flush: sent=%d coalesced=%d err=%v", sent, coalesced, err)
	}

	// Next batch: the drag continues. Mask continuity must classify these
	// as pure moves even though the press was in the previous flush.
	f.add(PointerTo(40, 10, 1), 0)
	f.add(PointerTo(50, 10, 1), 0)
	f.add(PointerTo(50, 10, 0), 0) // release (transition 1->0)
	sent, coalesced, err = f.flush(c)
	if err != nil || sent != 2 || coalesced != 1 {
		t.Fatalf("second flush: sent=%d coalesced=%d err=%v", sent, coalesced, err)
	}

	want := []rfb.InputEvent{
		{IsPointer: true, Pointer: rfb.PointerEvent{Buttons: 1, X: 10, Y: 10}},
		{IsPointer: true, Pointer: rfb.PointerEvent{Buttons: 1, X: 30, Y: 10}},
		{IsPointer: true, Pointer: rfb.PointerEvent{Buttons: 1, X: 50, Y: 10}},
		{IsPointer: true, Pointer: rfb.PointerEvent{Buttons: 0, X: 50, Y: 10}},
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(h.snapshot()) < len(want) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out; got %+v", h.snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	got := h.snapshot()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: want %+v got %+v", i, want[i], got[i])
		}
	}
}

// TestFlusherNeverCoalescesPressOrKey pins the two hard exclusions with a
// deterministic stream: a press following moves is appended (its own
// coordinates are where the widget is picked), and key events interleaved
// with moves break coalescing runs.
func TestFlusherNeverCoalescesPressOrKey(t *testing.T) {
	var f inputFlusher
	f.add(PointerTo(1, 1, 0), 0)                                // move
	f.add(PointerTo(2, 2, 0), 0)                                // move, coalesces
	f.add(PointerTo(3, 3, 1), 0)                                // press at (3,3): kept
	f.add(UniEvent{Key: rfb.KeyEvent{Down: true, Key: 'k'}}, 0) // key: kept
	f.add(PointerTo(4, 4, 1), 0)                                // drag move after key: kept (run broken)
	f.add(PointerTo(5, 5, 1), 0)                                // drag move: coalesces into previous
	f.add(PointerTo(5, 5, 0), 0)                                // release: kept

	want := []rfb.InputEvent{
		{IsPointer: true, Pointer: rfb.PointerEvent{Buttons: 0, X: 2, Y: 2}},
		{IsPointer: true, Pointer: rfb.PointerEvent{Buttons: 1, X: 3, Y: 3}},
		{Key: rfb.KeyEvent{Down: true, Key: 'k'}},
		{IsPointer: true, Pointer: rfb.PointerEvent{Buttons: 1, X: 5, Y: 5}},
		{IsPointer: true, Pointer: rfb.PointerEvent{Buttons: 0, X: 5, Y: 5}},
	}
	if len(f.pend) != len(want) {
		t.Fatalf("pend = %d events, want %d", len(f.pend), len(want))
	}
	for i := range want {
		if f.pend[i].ev != want[i] {
			t.Errorf("event %d: want %+v got %+v", i, want[i], f.pend[i].ev)
		}
	}
	if f.coalesced != 2 {
		t.Errorf("coalesced = %d, want 2", f.coalesced)
	}
}
