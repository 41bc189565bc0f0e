package uniserver

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"uniint/internal/gfx"
	"uniint/internal/rfb"
	"uniint/internal/toolkit"
)

// recorder implements rfb.ClientHandler for tests.
type recorder struct {
	mu      sync.Mutex
	updates int
	gotUpd  chan struct{}
}

func newRecorder() *recorder { return &recorder{gotUpd: make(chan struct{}, 64)} }

func (r *recorder) Updated(rects []gfx.Rect) {
	r.mu.Lock()
	r.updates++
	r.mu.Unlock()
	select {
	case r.gotUpd <- struct{}{}:
	default:
	}
}
func (r *recorder) Bell()          {}
func (r *recorder) CutText(string) {}

// wire builds display+server+connected client.
func wire(t *testing.T) (*toolkit.Display, *Server, *rfb.ClientConn, *recorder) {
	t.Helper()
	display := toolkit.NewDisplay(160, 120)
	srv := New(display, "test session", nil)

	sc, cc := net.Pipe()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Attach(sc) }()
	client, err := rfb.Dial(cc)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	runDone := make(chan struct{})
	go func() { client.Run(rec); close(runDone) }()
	t.Cleanup(func() {
		client.Close()
		srv.Close()
		select {
		case <-runDone:
		case <-time.After(2 * time.Second):
			t.Error("client run loop stuck")
		}
		select {
		case <-serveErr:
		case <-time.After(2 * time.Second):
			t.Error("server handler stuck")
		}
	})
	return display, srv, client, rec
}

// sendKey and sendPointer write one event through WriteEvents, the
// client's one input writer (the proxy's batches go the same way).
func sendKey(c *rfb.ClientConn, ev rfb.KeyEvent) error {
	return c.WriteEvents([]rfb.InputEvent{{Key: ev}})
}

func sendPointer(c *rfb.ClientConn, ev rfb.PointerEvent) error {
	return c.WriteEvents([]rfb.InputEvent{{IsPointer: true, Pointer: ev}})
}

func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHandshakeAnnouncesDisplayGeometry(t *testing.T) {
	_, srv, client, _ := wire(t)
	w, h := client.Size()
	if w != 160 || h != 120 {
		t.Errorf("size = %dx%d", w, h)
	}
	if client.Name() != "test session" {
		t.Errorf("name = %q", client.Name())
	}
	waitFor(t, "session registration", func() bool { return srv.Sessions() == 1 })
}

func TestFullUpdateRequest(t *testing.T) {
	display, _, client, rec := wire(t)
	root := toolkit.NewPanel(toolkit.VBox{Gap: 2, Padding: 2})
	root.Add(toolkit.NewLabel("hello world"))
	display.SetRoot(root)

	if err := client.RequestUpdate(false, gfx.R(0, 0, 160, 120)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "full update", func() bool {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return rec.updates >= 1
	})
	// Shadow framebuffer matches the display.
	want := display.Snapshot(gfx.R(0, 0, 160, 120))
	got := client.Snapshot(gfx.R(0, 0, 160, 120))
	if !got.Equal(want) {
		t.Error("client shadow does not match display content")
	}
}

func TestIncrementalParksUntilDamage(t *testing.T) {
	display, _, client, rec := wire(t)
	// Drain initial state with a full update.
	client.RequestUpdate(false, gfx.R(0, 0, 160, 120))
	waitFor(t, "initial update", func() bool {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return rec.updates >= 1
	})

	// Incremental request with no damage: nothing should arrive.
	client.RequestUpdate(true, gfx.R(0, 0, 160, 120))
	time.Sleep(20 * time.Millisecond)
	rec.mu.Lock()
	before := rec.updates
	rec.mu.Unlock()
	if before != 1 {
		t.Fatalf("unexpected update while clean: %d", before)
	}

	// Now damage the display: the parked request must complete.
	lbl := toolkit.NewLabel("news")
	root := toolkit.NewPanel(toolkit.VBox{})
	root.Add(lbl)
	display.SetRoot(root)
	waitFor(t, "parked update", func() bool {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return rec.updates >= 2
	})
}

func TestInputEventsReachWidgets(t *testing.T) {
	display, _, client, _ := wire(t)
	clicks := 0
	var mu sync.Mutex
	btn := toolkit.NewButton("go", func() { mu.Lock(); clicks++; mu.Unlock() })
	root := toolkit.NewPanel(toolkit.VBox{Gap: 2, Padding: 2})
	root.Add(btn)
	display.SetRoot(root)
	display.Render()

	b := btn.Bounds()
	x, y := uint16(b.X+2), uint16(b.Y+2)
	if err := sendPointer(client, rfb.PointerEvent{Buttons: 1, X: x, Y: y}); err != nil {
		t.Fatal(err)
	}
	if err := sendPointer(client, rfb.PointerEvent{Buttons: 0, X: x, Y: y}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pointer click", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return clicks == 1
	})

	// Keyboard path: Enter activates the focused button.
	if err := sendKey(client, rfb.KeyEvent{Down: true, Key: rfb.KeyReturn}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "key click", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return clicks == 2
	})
}

func TestInteractionProducesIncrementalUpdate(t *testing.T) {
	// The classic thin-client round trip: press a button, the visual
	// pressed-state change flows back as an update.
	display, _, client, rec := wire(t)
	btn := toolkit.NewButton("go", nil)
	root := toolkit.NewPanel(toolkit.VBox{Gap: 2, Padding: 2})
	root.Add(btn)
	display.SetRoot(root)
	display.Render()

	client.RequestUpdate(false, gfx.R(0, 0, 160, 120))
	waitFor(t, "initial", func() bool {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return rec.updates >= 1
	})
	client.RequestUpdate(true, gfx.R(0, 0, 160, 120))

	b := btn.Bounds()
	sendPointer(client, rfb.PointerEvent{Buttons: 1, X: uint16(b.X + 2), Y: uint16(b.Y + 2)})
	waitFor(t, "press repaint", func() bool {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return rec.updates >= 2
	})
}

func TestMultipleSessionsSeeSameDesktop(t *testing.T) {
	display, srv, client1, rec1 := wire(t)

	// Second client on the same server.
	sc, cc := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.Attach(sc) }()
	client2, err := rfb.Dial(cc)
	if err != nil {
		t.Fatal(err)
	}
	rec2 := newRecorder()
	go func() { client2.Run(rec2) }()
	defer client2.Close()

	waitFor(t, "two sessions", func() bool { return srv.Sessions() == 2 })

	root := toolkit.NewPanel(toolkit.VBox{})
	root.Add(toolkit.NewLabel("shared"))
	display.SetRoot(root)

	client1.RequestUpdate(false, gfx.R(0, 0, 160, 120))
	client2.RequestUpdate(false, gfx.R(0, 0, 160, 120))
	waitFor(t, "both updated", func() bool {
		rec1.mu.Lock()
		u1 := rec1.updates
		rec1.mu.Unlock()
		rec2.mu.Lock()
		u2 := rec2.updates
		rec2.mu.Unlock()
		return u1 >= 1 && u2 >= 1
	})
	if !client1.Snapshot(gfx.R(0, 0, 160, 120)).Equal(client2.Snapshot(gfx.R(0, 0, 160, 120))) {
		t.Error("sessions diverged")
	}
}

func TestServeAcceptLoop(t *testing.T) {
	display := toolkit.NewDisplay(64, 64)
	srv := New(display, "accept test", nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	client, err := rfb.Dial(conn)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(client.Name(), "accept") {
		t.Errorf("name = %q", client.Name())
	}
	client.Close()
	ln.Close()
	select {
	case <-serveDone:
	case <-time.After(2 * time.Second):
		t.Fatal("serve did not return after listener close")
	}
	srv.Close()
}

// slowConn delays every read, simulating a narrow client link so writes
// from the server back up and the coalescing path engages.
type slowConn struct {
	net.Conn
	delay time.Duration
}

func (s *slowConn) Read(p []byte) (int, error) {
	time.Sleep(s.delay)
	return s.Conn.Read(p)
}

// TestBackpressureCoalescesUpdates: a burst of pipelined full-region
// requests against a slow client must be answered with FEWER updates than
// requests — while one write is in flight, later requested damage merges
// into the pending outbox and ships as one coalesced FramebufferUpdate —
// and the final shadow framebuffer must still match the display.
func TestBackpressureCoalescesUpdates(t *testing.T) {
	display := toolkit.NewDisplay(160, 120)
	srv := New(display, "coalesce test", nil)
	root := toolkit.NewPanel(toolkit.VBox{Gap: 2, Padding: 2})
	root.Add(toolkit.NewLabel("backpressure"))
	display.SetRoot(root)

	sc, cc := net.Pipe()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Attach(sc) }()
	client, err := rfb.Dial(&slowConn{Conn: cc, delay: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	runDone := make(chan struct{})
	go func() { client.Run(rec); close(runDone) }()
	defer func() {
		client.Close()
		srv.Close()
		<-runDone
		<-serveErr
	}()

	const burst = 12
	before := mRectsCoalesced.Value()
	for i := 0; i < burst; i++ {
		if err := client.RequestUpdate(false, gfx.R(0, 0, 160, 120)); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until every request has been answered or folded into a
	// coalesced reply: updates stop growing once the outbox drains.
	waitFor(t, "replies to settle", func() bool {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return rec.updates >= 1 && int64(rec.updates)+(mRectsCoalesced.Value()-before) >= burst
	})
	time.Sleep(20 * time.Millisecond) // let any straggler land
	rec.mu.Lock()
	got := rec.updates
	rec.mu.Unlock()
	if got >= burst {
		t.Errorf("no coalescing: %d updates for %d pipelined requests", got, burst)
	}
	if mRectsCoalesced.Value() == before {
		t.Error("coalesced-rects counter did not move")
	}
	if !client.Snapshot(gfx.R(0, 0, 160, 120)).Equal(display.Snapshot(gfx.R(0, 0, 160, 120))) {
		t.Error("shadow diverged from display after coalesced replies")
	}
}

func TestEmptyRegionRequestGetsEmptyReply(t *testing.T) {
	_, _, client, rec := wire(t)
	// A non-incremental request for a region entirely off-screen must
	// still be answered (with zero rectangles), keeping request/reply
	// pairing intact for demand-driven clients.
	if err := client.RequestUpdate(false, gfx.R(5000, 5000, 10, 10)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "empty reply", func() bool {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return rec.updates == 1
	})
	if client.UpdatesReceived() != 1 {
		t.Errorf("updates = %d", client.UpdatesReceived())
	}
}

// TestPartialRegionRetainsOutsideDamage: damage outside a request's region
// must survive for a later request instead of being dropped — a
// spec-compliant client that polls sub-regions must eventually see every
// damaged pixel.
func TestPartialRegionRetainsOutsideDamage(t *testing.T) {
	display, _, client, rec := wire(t)
	top := toolkit.NewLabel("top strip")
	bottom := toolkit.NewLabel("bottom strip")
	root := toolkit.NewPanel(toolkit.Fixed{})
	root.Add(top, bottom)
	top.SetBounds(gfx.R(10, 10, 80, 12))
	bottom.SetBounds(gfx.R(10, 100, 80, 12))
	display.SetRoot(root)

	client.RequestUpdate(false, gfx.R(0, 0, 160, 120))
	waitFor(t, "initial full update", func() bool {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return rec.updates >= 1
	})

	// Damage both strips.
	display.Update(func() {
		top.SetText("top CHANGED")
		bottom.SetText("bottom CHANGED")
	})

	// Ask only for the top half: the reply covers the top strip, the
	// bottom strip's damage must go back to the dirty set.
	client.RequestUpdate(true, gfx.R(0, 0, 160, 60))
	waitFor(t, "top-half update", func() bool {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return rec.updates >= 2
	})

	// A full-screen incremental request must now deliver the bottom strip
	// (the old path dropped it, parking this request forever).
	client.RequestUpdate(true, gfx.R(0, 0, 160, 120))
	waitFor(t, "bottom strip update", func() bool {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return rec.updates >= 3
	})
	if !client.Snapshot(gfx.R(0, 0, 160, 120)).Equal(display.Snapshot(gfx.R(0, 0, 160, 120))) {
		t.Error("shadow diverged: out-of-region damage was lost")
	}
}

// TestDamageOutsideParkedRegionStaysParked: new damage entirely outside a
// parked incremental request's region must not unpark it with an empty
// reply, and must still be collectable by a matching request.
func TestDamageOutsideParkedRegionStaysParked(t *testing.T) {
	display, _, client, rec := wire(t)
	bottom := toolkit.NewLabel("bottom")
	root := toolkit.NewPanel(toolkit.Fixed{})
	root.Add(bottom)
	bottom.SetBounds(gfx.R(10, 100, 80, 12))
	display.SetRoot(root)

	client.RequestUpdate(false, gfx.R(0, 0, 160, 120))
	waitFor(t, "initial", func() bool {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return rec.updates >= 1
	})

	// Park a request for the (clean) top half, then damage the bottom.
	client.RequestUpdate(true, gfx.R(0, 0, 160, 50))
	time.Sleep(10 * time.Millisecond)
	display.Update(func() { bottom.SetText("bottom CHANGED") })
	time.Sleep(20 * time.Millisecond)
	rec.mu.Lock()
	got := rec.updates
	rec.mu.Unlock()
	if got != 1 {
		t.Fatalf("out-of-region damage answered a parked request: %d updates", got)
	}

	// A full request collects the bottom damage; the top-half request
	// stays parked (one reply, not two).
	client.RequestUpdate(true, gfx.R(0, 0, 160, 120))
	waitFor(t, "bottom damage", func() bool {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return rec.updates >= 2
	})
}

// TestResizeUnderLiveSession: shrinking the display while a proxy is
// connected must not crash the encoder — updates are clipped to the live
// framebuffer, and every request still gets a reply.
func TestResizeUnderLiveSession(t *testing.T) {
	display, _, client, rec := wire(t)
	root := toolkit.NewPanel(toolkit.VBox{Gap: 2, Padding: 2})
	root.Add(toolkit.NewLabel("before resize"))
	display.SetRoot(root)

	client.RequestUpdate(false, gfx.R(0, 0, 160, 120))
	waitFor(t, "pre-resize update", func() bool {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return rec.updates >= 1
	})

	// Shrink under the session; the client still requests its handshake
	// geometry.
	display.Resize(80, 60)
	client.RequestUpdate(false, gfx.R(0, 0, 160, 120))
	waitFor(t, "post-shrink update", func() bool {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return rec.updates >= 2
	})

	// Grow again and make sure the pipeline still answers.
	display.Resize(160, 120)
	client.RequestUpdate(false, gfx.R(0, 0, 160, 120))
	waitFor(t, "post-grow update", func() bool {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return rec.updates >= 3
	})
	if !client.Snapshot(gfx.R(0, 0, 160, 120)).Equal(display.Snapshot(gfx.R(0, 0, 160, 120))) {
		t.Error("shadow diverged after resize cycle")
	}
}
