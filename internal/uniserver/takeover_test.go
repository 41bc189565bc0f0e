package uniserver

import (
	"net"
	"sync"
	"testing"
	"time"

	"uniint/internal/gfx"
	"uniint/internal/leakcheck"
	"uniint/internal/metrics"
	"uniint/internal/rfb"
	"uniint/internal/toolkit"
)

// dialOver connects a full protocol client over one of the transports and
// runs its read loop; done closes when the loop returns, which the test's
// cleanup waits for, closing the client first.
func dialOver(t *testing.T, srv *Server, pipe func(*testing.T) (net.Conn, net.Conn), prev *rfb.ClientConn) (*rfb.ClientConn, *recorder, chan struct{}) {
	t.Helper()
	cc, sc := pipe(t)
	go srv.Attach(sc)
	client, err := rfb.DialResume(cc, prev)
	if err != nil {
		t.Fatal(err)
	}
	rec, done := newRecorder(), make(chan struct{})
	go func() { client.Run(rec); close(done) }()
	t.Cleanup(func() { client.Close(); <-done })
	return client, rec, done
}

// shadowMatches reports whether the client's shadow shows exactly what the
// display has painted, with nothing owed. (It reads the display's pixels as
// they are: Display.Snapshot would render the damage the server has yet to
// ship.)
func shadowMatches(display *toolkit.Display, client *rfb.ClientConn) bool {
	if display.Dirty() {
		return false
	}
	w, h := client.Size()
	shadow, same := client.Snapshot(gfx.R(0, 0, w, h)), false
	display.WithFramebuffer(func(fb *gfx.Framebuffer) { same = fb.Equal(shadow) })
	return same
}

// TestTakeoverOfLiveSession: client A is connected and never closes; client
// B presents A's token on a new connection. B resumes A's session — the
// server closes A's link, parks it, and hands the parked state to B — with
// an incremental resync onto A's shadow, and the books balance.
func TestTakeoverOfLiveSession(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			leakcheck.Check(t, 0)
			imbalance0 := parkImbalance(metrics.Default().Snapshot())
			takeovers0, misses0 := counter("session_takeover_total"), counter("session_resume_miss_total")
			display := toolkit.NewDisplay(160, 120)
			lbl := toolkit.NewLabel("before")
			root := toolkit.NewPanel(toolkit.VBox{Gap: 2, Padding: 2})
			root.Add(lbl)
			display.SetRoot(root)
			srv := New(display, "takeover test", nil)
			defer srv.Close()
			full := gfx.R(0, 0, 160, 120)

			a, _, aDone := dialOver(t, srv, tr.pipe, nil)
			a.RequestUpdate(false, full)
			waitFor(t, "A painted", func() bool { return shadowMatches(display, a) })
			// Damage A never asks for: it rides the takeover to B.
			display.Update(func() { lbl.SetText("after") })

			b, _, _ := dialOver(t, srv, tr.pipe, a)
			defer b.Close()
			if !b.Resumed() || b.Token() != a.Token() {
				t.Fatalf("takeover: resumed=%v token=%q, want A's %q", b.Resumed(), b.Token(), a.Token())
			}
			select {
			case <-aDone: // the server closed A's link
			case <-time.After(2 * time.Second):
				t.Fatal("A's link still up after the takeover")
			}
			if d := counter("session_takeover_total") - takeovers0; d != 1 {
				t.Errorf("session_takeover_total delta = %d, want 1", d)
			}
			if d := counter("session_resume_miss_total") - misses0; d != 0 {
				t.Errorf("session_resume_miss_total delta = %d, want 0", d)
			}
			// (The handshake reply precedes registration.)
			waitFor(t, "B's session live in A's place", func() bool { return srv.Sessions() == 1 && srv.Parked() == 0 })

			// B builds on A's pixels: only the label's damage crosses.
			before := b.BytesReceived()
			b.RequestUpdate(true, full)
			waitFor(t, "B converged on the display", func() bool { return shadowMatches(display, b) })
			if got := b.BytesReceived() - before; got >= int64(full.Area()) {
				t.Errorf("resync after takeover shipped %d bytes: a full repaint", got)
			}

			b.Close()
			waitFor(t, "B parked", func() bool { return srv.Parked() == 1 })
			srv.Close()
			if d := parkImbalance(metrics.Default().Snapshot()) - imbalance0; d != 0 {
				t.Errorf("park accounting identity off by %d", d)
			}
		})
	}
}

// TestTakeoverStalledTeardownMissesCleanly: the live session's dispatcher
// is stuck inside a widget callback, so its teardown cannot finish. The
// presenter of its token waits out the bound and then gets a fresh session
// (a miss, a full repaint) — never a hang, never half a session. Once the
// stall lifts the old session parks as usual.
func TestTakeoverStalledTeardownMissesCleanly(t *testing.T) {
	defer func(d time.Duration) { takeoverWait = d }(takeoverWait)
	takeoverWait = 30 * time.Millisecond

	h := newLotHarness(t)
	takeovers0, misses0 := counter("session_takeover_total"), counter("session_resume_miss_total")
	block, entered := make(chan struct{}), make(chan struct{}, 1)
	unblock := sync.OnceFunc(func() { close(block) })
	defer unblock()
	btn := toolkit.NewButton("stall", func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-block
	})
	root := toolkit.NewPanel(toolkit.VBox{Gap: 2, Padding: 2})
	root.Add(btn)
	h.display.SetRoot(root)
	h.display.Render()

	a, _ := h.connect(nil)
	bb := btn.Bounds()
	sendPointer(a, rfb.PointerEvent{Buttons: 1, X: uint16(bb.X + 2), Y: uint16(bb.Y + 2)})
	sendPointer(a, rfb.PointerEvent{Buttons: 0, X: uint16(bb.X + 2), Y: uint16(bb.Y + 2)})
	<-entered

	b, _ := h.connect(a)
	defer b.Close()
	if b.Resumed() || b.Token() == a.Token() {
		t.Fatalf("stalled takeover: resumed=%v token=%q, want a fresh session", b.Resumed(), b.Token())
	}
	if d := counter("session_resume_miss_total") - misses0; d != 1 {
		t.Errorf("session_resume_miss_total delta = %d, want 1", d)
	}
	if d := counter("session_takeover_total") - takeovers0; d != 0 {
		t.Errorf("session_takeover_total delta = %d, want 0 (the wait timed out)", d)
	}
	unblock()
	waitFor(t, "stalled session parked", func() bool { return h.srv.HasParked(a.Token()) })
}
