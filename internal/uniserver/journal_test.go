package uniserver

import (
	"fmt"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	"uniint/internal/gfx"
	"uniint/internal/rfb"
	"uniint/internal/toolkit"
)

// journalRects returns n rects in and around bounds: most inside, some
// crossing its edges, a few wholly outside (the parked damage clips them).
func journalRects(rng *rand.Rand, bounds gfx.Rect, n int) []gfx.Rect {
	out := make([]gfx.Rect, n)
	for i := range out {
		out[i] = gfx.R(rng.Intn(bounds.W+40)-20, rng.Intn(bounds.H+40)-20, 1+rng.Intn(bounds.W/2), 1+rng.Intn(bounds.H/2))
	}
	return out
}

// offerRenders hands rects to srv as renders of one to five rects, the
// way pumps do.
func offerRenders(srv *Server, rng *rand.Rand, rects []gfx.Rect) {
	for len(rects) > 0 {
		n := min(1+rng.Intn(5), len(rects))
		srv.pumpMu.Lock()
		srv.offer(rects[:n], 0)
		srv.pumpMu.Unlock()
		rects = rects[n:]
	}
}

// inPlace is the damage set that took every render in place: the rects
// added in order.
func inPlace(bounds gfx.Rect, rects []gfx.Rect) []gfx.Rect {
	d := gfx.NewDamage(bounds, 16)
	for _, r := range rects {
		d.Add(r)
	}
	return d.Peek()
}

// reference is the damage a parked row holds after rects rendered: the
// in-place set, or the whole of bounds when there are more than the
// journal keeps.
func reference(bounds gfx.Rect, rects []gfx.Rect) []gfx.Rect {
	if len(rects) > journalCap {
		return []gfx.Rect{bounds}
	}
	return inPlace(bounds, rects)
}

// parkClean parks a painted session and checks it parked with no damage,
// so the reference starts from an empty set.
func (h *lotHarness) parkClean(full gfx.Rect) *rfb.ClientConn {
	h.t.Helper()
	away := h.paintAndPark(full)
	h.srv.mu.Lock()
	defer h.srv.mu.Unlock()
	if d := h.srv.table[away.Token()].ps.cur.dirty; !d.Empty() {
		h.t.Fatalf("session parked with damage %v", d.Peek())
	}
	return away
}

// resumedDirty resumes away's session on a client that asks for nothing
// and returns the damage its live session holds once its cursor has caught
// up: what the next writer turn reads, and the resync ships.
func (h *lotHarness) resumedDirty(away *rfb.ClientConn) []gfx.Rect {
	h.t.Helper()
	tok := away.Token()
	back, _ := h.connect(away)
	h.t.Cleanup(func() { back.Close() })
	if !back.Resumed() {
		h.t.Fatal("resume of the parked session missed")
	}
	waitFor(h.t, "resumed session live", func() bool { return stateOf(h.srv, tok) == live })
	h.srv.pumpMu.Lock() // a writer turn catches its cursor up under pumpMu
	defer h.srv.pumpMu.Unlock()
	h.srv.mu.Lock()
	sess := h.srv.table[tok].sess
	h.srv.mu.Unlock()
	h.srv.catchUp(&sess.cur)
	return sess.cur.dirty.Peek()
}

// liveReply connects a client, syncs it with a full update and then holds
// its next request back while rects render, and returns the rects of the
// one update that request draws — nil when no damage lands in the frame,
// after checking that the request parked and drew no update.
func (h *lotHarness) liveReply(full gfx.Rect, rng *rand.Rand, rects []gfx.Rect) []gfx.Rect {
	h.t.Helper()
	client, rec := h.connect(nil)
	h.t.Cleanup(func() { client.Close() })
	client.RequestUpdate(false, full)
	waitFor(h.t, "client synced", func() bool { u, _ := rec.snapshot(); return u == 1 })
	_, synced := rec.snapshot()
	offerRenders(h.srv, rng, rects)
	client.RequestUpdate(true, full)
	if len(inPlace(full, rects)) == 0 {
		waitFor(h.t, "request parked", func() bool {
			h.srv.pumpMu.Lock()
			defer h.srv.pumpMu.Unlock()
			h.srv.mu.Lock()
			defer h.srv.mu.Unlock()
			return h.srv.table[client.Token()].sess.waiting
		})
		if u, _ := rec.snapshot(); u != 1 {
			h.t.Fatalf("%d updates with no damage, want the request parked", u-1)
		}
		return nil
	}
	waitFor(h.t, "reply", func() bool { u, _ := rec.snapshot(); return u == 2 })
	_, got := rec.snapshot()
	return got[len(synced):]
}

func newJournalHarness(t *testing.T) (*lotHarness, gfx.Rect) {
	h := newLotHarness(t)
	h.display.SetRoot(toolkit.NewPanel(toolkit.VBox{Gap: 2, Padding: 2}))
	return h, gfx.R(0, 0, 160, 120)
}

// TestJournalResyncMatchesInPlaceDamage: K rects are rendered while a
// session waits — parked, or live with its client holding its request
// back. For K up to journalCap the parked session's resumed dirty set is
// exactly the damage set that took each render in place; past it, the
// whole frame. The live session's next reply is the in-place set for every
// K: the pump catches a lagging live cursor up before the ring laps it.
func TestJournalResyncMatchesInPlaceDamage(t *testing.T) {
	for _, k := range []int{0, 1, 40, journalCap, journalCap + 1, 3 * journalCap} {
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			h, full := newJournalHarness(t)
			rng := rand.New(rand.NewSource(int64(k) + 1))
			away := h.parkClean(full)
			rects := journalRects(rng, full, k)
			offerRenders(h.srv, rng, rects)
			if got, want := h.resumedDirty(away), reference(full, rects); !slices.Equal(got, want) {
				t.Fatalf("resumed dirty set after %d rects\n got %v\nwant %v", k, got, want)
			}
		})
		t.Run(fmt.Sprint("live-", k), func(t *testing.T) {
			h, full := newJournalHarness(t)
			rng := rand.New(rand.NewSource(int64(k) + 1))
			rects := journalRects(rng, full, k)
			// The writer gathers the taken set into its outbox, a damage set
			// of its own, which merges what now tiles exactly.
			if got, want := h.liveReply(full, rng, rects), inPlace(full, inPlace(full, rects)); !slices.Equal(got, want) {
				t.Fatalf("live reply after %d rects\n got %v\nwant %v", k, got, want)
			}
		})
	}
}

// TestJournalStampsEachRow: a server no session has read journals nothing,
// rows parked at different times replay from their own positions,
// ExportParked's record carries the replayed damage, and a claim refused
// mid-journal resumes later with every render.
func TestJournalStampsEachRow(t *testing.T) {
	h, full := newJournalHarness(t)
	rng := rand.New(rand.NewSource(7))
	r1, r2, r3 := journalRects(rng, full, 30), journalRects(rng, full, 30), journalRects(rng, full, 30)

	offerRenders(h.srv, rng, r3)
	if h.srv.journal != nil || h.srv.jseq != 0 {
		t.Fatalf("a server no session has read journaled %d rects", h.srv.jseq)
	}
	a := h.parkClean(full)
	offerRenders(h.srv, rng, r1)
	b := h.parkClean(full)
	offerRenders(h.srv, rng, r2)
	rec, ok := h.srv.ExportParked(a.Token())
	if !ok {
		t.Fatal("export of the parked session failed")
	}
	if want := reference(full, append(slices.Clone(r1), r2...)); !slices.Equal(rec.Dirty, want) {
		t.Fatalf("exported Dirty\n got %v\nwant %v", rec.Dirty, want)
	}

	// b is claimed, renders land, the claim is refused, more renders land.
	by := &session{token: b.Token(), retired: make(chan struct{})}
	if !h.srv.claimParked(b.Token(), full.W, full.H, by) {
		t.Fatal("claim of the parked session failed")
	}
	offerRenders(h.srv, rng, r3)
	h.srv.refuse(by, claimed)
	offerRenders(h.srv, rng, r1)
	want := reference(full, slices.Concat(r2, r3, r1))
	if got := h.resumedDirty(b); !slices.Equal(got, want) {
		t.Fatalf("resume after a refused claim\n got %v\nwant %v", got, want)
	}

	// A row parked after the lot emptied replays from its own position.
	c := h.parkClean(full)
	offerRenders(h.srv, rng, r3)
	if got, want := h.resumedDirty(c), reference(full, r3); !slices.Equal(got, want) {
		t.Fatalf("park after an empty lot\n got %v\nwant %v", got, want)
	}
}

// pumpScene builds a 640×480 display of toggles under a server with
// nParked parked rows and nLive live sessions, each with an incremental
// request parked on a strip no toggle covers, and returns the server and a
// flip that damages one toggle. Every flip kicks each live session's
// writer, whose turn reads the flip from the journal and parks the request
// again.
func pumpScene(tb testing.TB, nParked, nLive int) (*Server, func()) {
	display := toolkit.NewDisplay(640, 480)
	root := toolkit.NewPanel(toolkit.VBox{Gap: 2, Padding: 2})
	toggles := make([]*toolkit.Toggle, 8)
	for i := range toggles {
		toggles[i] = toolkit.NewToggle(fmt.Sprintf("toggle %d", i), false, nil)
		root.Add(toggles[i])
	}
	display.SetRoot(root)
	srv := New(display, "pump", nil)
	tb.Cleanup(srv.Close)
	now := time.Now()
	srv.pumpMu.Lock()
	srv.mu.Lock()
	for i := 0; i < nParked; i++ {
		ps := &parkedSession{w: 640, h: 480, cur: cursor{dirty: gfx.NewDamage(gfx.R(0, 0, 640, 480), 16)}, parkedAt: now, deadline: now.Add(time.Hour)}
		srv.stamp(&ps.cur)
		if srv.transition(fmt.Sprintf("parked-%d", i), gone, parked, nil, ps) == nil {
			tb.Fatal("planting a parked row refused")
		}
	}
	srv.mu.Unlock()
	srv.pumpMu.Unlock()
	display.Render()
	strip := gfx.R(0, 470, 640, 10)
	if toggles[len(toggles)-1].Bounds().Overlaps(strip) {
		tb.Fatal("the parked requests' strip overlaps a toggle")
	}
	for i := 0; i < nLive; i++ {
		sc, cc := net.Pipe()
		attached := make(chan error, 1)
		go func() { attached <- srv.Attach(sc) }()
		client, err := rfb.Dial(cc)
		if err != nil {
			tb.Fatal(err)
		}
		ran := make(chan struct{})
		go func() { client.Run(&rectRecorder{}); close(ran) }()
		tb.Cleanup(func() { client.Close(); <-ran; <-attached })
		client.RequestUpdate(true, strip)
	}
	waitFor(tb, "every live session's request parked", func() bool {
		srv.pumpMu.Lock()
		defer srv.pumpMu.Unlock()
		srv.mu.Lock()
		defer srv.mu.Unlock()
		n := 0
		for _, sess := range srv.liveSess {
			if sess.waiting {
				n++
			}
		}
		return n == nLive
	})
	i := 0
	return srv, func() {
		tg := toggles[i%len(toggles)]
		i++
		display.Update(func() { tg.SetOn(!tg.On()) })
	}
}

// BenchmarkPump is one toggle flip rendered and offered by the server's
// pump, with no parked rows, with a full lot and with live sessions whose
// writers each have a request parked: the parked rows must cost nothing,
// and none of the three allocates.
func BenchmarkPump(b *testing.B) {
	for _, c := range []struct{ parked, live int }{{0, 0}, {DefaultParkCapacity, 0}, {0, 8}} {
		name := fmt.Sprintf("parked-%d", c.parked)
		if c.live > 0 {
			name = fmt.Sprintf("live-%d", c.live)
		}
		b.Run(name, func(b *testing.B) {
			_, flip := pumpScene(b, c.parked, c.live)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				flip()
			}
		})
	}
}

// TestPumpWithFullLotAllocatesNothing: the journal is made at the first
// stamp, so a pump over a full lot and eight live sessions with requests
// parked allocates nothing — nor do the writer turns it kicks.
func TestPumpWithFullLotAllocatesNothing(t *testing.T) {
	_, flip := pumpScene(t, DefaultParkCapacity, 8)
	flip()
	if allocs := testing.AllocsPerRun(100, flip); allocs != 0 {
		t.Fatalf("pump over a full lot and 8 live sessions = %.1f allocs/op, want 0", allocs)
	}
}

// TestPumpKeepsLiveCursorsInPlace: back-to-back flips outrun eight live
// writers, each with a request parked on a strip no flip touches. The pump
// catches a lagging live cursor up in place, so no writer falls past the
// ring into a full-bounds resync, which would answer its request: no
// update ships, and every request parks again.
func TestPumpKeepsLiveCursorsInPlace(t *testing.T) {
	srv, flip := pumpScene(t, 0, 8)
	u0 := mUpdatesSent.Value()
	for i := 0; i < 64*journalCap; i++ {
		flip()
	}
	waitFor(t, "every writer caught up with its request parked", func() bool {
		srv.pumpMu.Lock()
		defer srv.pumpMu.Unlock()
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for _, sess := range srv.liveSess {
			if !sess.waiting || sess.cur.seq != srv.jseq {
				return false
			}
		}
		return true
	})
	if n := mUpdatesSent.Value() - u0; n != 0 {
		t.Fatalf("%d updates shipped to requests no flip touched", n)
	}
}
