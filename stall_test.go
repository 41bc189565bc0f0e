package uniint_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"uniint"
	"uniint/internal/appliance"
	"uniint/internal/gfx"
	"uniint/internal/havi"
	"uniint/internal/havi/fcm"
	"uniint/internal/hub"
	"uniint/internal/leakcheck"
	"uniint/internal/metrics"
	"uniint/internal/rfb"
	"uniint/internal/sched"
	"uniint/internal/toolkit"
	"uniint/internal/uniserver"
	"uniint/internal/workload"
)

// updateSignal is a client handler that signals every update it paints.
type updateSignal chan struct{}

func (u updateSignal) Updated([]gfx.Rect) {
	select {
	case u <- struct{}{}:
	default:
	}
}
func (updateSignal) Bell()          {}
func (updateSignal) CutText(string) {}

// smallSendBuffers hands the hub connections with a 64 KB send buffer, so
// a frame to a client that does not read fills the link at once instead
// of a few frames later (loopback's autotuned buffers hold several 1.2 MB
// frames).
type smallSendBuffers struct{ net.Listener }

func (l smallSendBuffers) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		err = c.(*net.TCPConn).SetWriteBuffer(64 << 10)
	}
	return c, err
}

// TestStalledReadersCostOnlyThemselves: twice as many clients as the pool
// has workers complete the handshake over loopback TCP with small socket
// buffers, ask for full raw frames every 5 ms and never read. Without a
// write budget their blocked writes hold every worker for good and the hub
// answers nobody. With it:
// every stalled session parks within WriteBudget plus slack; then a client
// on another home gets its first update as fast as one did before the
// stall (plus 100 ms), and its key toggles that home's lamp — two HAVi
// turns on the same pool — and the toggle reaches its frame.
func TestStalledReadersCostOnlyThemselves(t *testing.T) {
	leakcheck.Check(t, 0)
	var homes sync.Map
	h, err := hub.New(hub.Options{
		Factory: func(id string) (hub.Host, error) {
			s, err := uniint.NewSessionForHub(uniint.Options{
				Name: id, Appliances: []appliance.Appliance{appliance.NewLamp(id + " lamp")},
			})
			if err == nil {
				homes.Store(id, s)
			}
			return s, err
		},
		Metrics: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- h.Serve(smallSendBuffers{ln}) }()
	defer func() { ln.Close(); <-served }()
	for _, id := range []string{"before", "after", "stalled"} {
		if _, err := h.Admit(id); err != nil {
			t.Fatal(err)
		}
	}
	full := gfx.R(0, 0, uniint.DefaultWidth, uniint.DefaultHeight)

	// join routes a client into home id and returns it once its first
	// full frame has arrived, with the time that took from the dial.
	var runs sync.WaitGroup
	defer runs.Wait()
	join := func(id string) (*rfb.ClientConn, updateSignal, time.Duration) {
		t.Helper()
		t0 := time.Now()
		conn, err := hub.DialHome(ln.Addr().String(), id)
		if err != nil {
			t.Fatal(err)
		}
		c, err := rfb.Dial(conn)
		if err != nil {
			t.Fatal(err)
		}
		updated := make(updateSignal, 1)
		runs.Add(1)
		go func() { defer runs.Done(); c.Run(updated) }()
		if err := c.RequestUpdate(false, full); err != nil {
			t.Fatal(err)
		}
		select {
		case <-updated:
		case <-time.After(2 * uniserver.WriteBudget):
			c.Close()
			t.Fatalf("home %s: no first update", id)
		}
		return c, updated, time.Since(t0)
	}
	before, _, baseline := join("before")
	before.Close()

	// Each stalled client's receive buffer is small, as is the hub's send
	// buffer, so the hub's first frame to it blocks: the clock below starts
	// when the links block, as WriteBudget's does, not while frames still
	// fit in the socket buffers.
	stallers := 2 * sched.DefaultWorkers()
	stalled := make([]*rfb.ClientConn, stallers)
	for i := range stalled {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.(*net.TCPConn).SetReadBuffer(4 << 10); err != nil {
			t.Fatal(err)
		}
		if err := hub.WritePreamble(conn, "stalled"); err != nil {
			t.Fatal(err)
		}
		if stalled[i], err = rfb.Dial(conn); err != nil {
			t.Fatal(err)
		}
		defer stalled[i].Close()
		if err := stalled[i].SetEncodings([]int32{rfb.EncRaw}); err != nil {
			t.Fatal(err)
		}
	}
	stallStart := time.Now()
	stop := make(chan struct{})
	var asking sync.WaitGroup
	asking.Add(1)
	go func() {
		defer asking.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			for _, c := range stalled {
				_ = c.RequestUpdate(false, full) // fails once the hub has closed the link
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	defer asking.Wait()
	defer close(stop)

	host, err := h.Get("stalled")
	if err != nil {
		t.Fatal(err)
	}
	const slack = time.Second
	for host.Parked() < stallers {
		if time.Since(stallStart) > uniserver.WriteBudget+slack {
			t.Fatalf("%d of %d stalled sessions parked %v after the stall began (budget %v)",
				host.Parked(), stallers, time.Since(stallStart), uniserver.WriteBudget)
		}
		time.Sleep(5 * time.Millisecond)
	}

	after, updated, took := join("after")
	defer after.Close()
	if took > baseline+100*time.Millisecond {
		t.Errorf("first update %v after the stall, %v before it", took, baseline)
	}

	// A key on the home's lamp toggle: the dispatch turn sends the power
	// change over HAVi, the lamp's FCM handler runs and posts the change,
	// and the GUI's subscriber repaints the toggle — all pool turns.
	v, _ := homes.Load("after")
	power := make(chan int, 1)
	v.(*uniint.HubSession).Home.Network().Events().Subscribe(havi.EventFCMChanged, func(ev havi.Event) {
		if ev.Key == fcm.CtlPower {
			select {
			case power <- ev.Value:
			default:
			}
		}
	})
	was := after.Snapshot(full)
	for _, down := range []bool{true, false} {
		if err := after.WriteEvents([]rfb.InputEvent{{Key: rfb.KeyEvent{Down: down, Key: rfb.KeyReturn}}}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-power:
	case <-time.After(uniserver.WriteBudget):
		t.Fatal("the lamp never heard the key")
	}
	deadline := time.After(uniserver.WriteBudget)
	for same := true; same; {
		if err := after.RequestUpdate(true, full); err != nil {
			t.Fatal(err)
		}
		select {
		case <-updated:
		case <-deadline:
			t.Fatal("the toggle never reached the client's frame")
		}
		now := after.Snapshot(full)
		same = now.Equal(was)
	}
}

// TestTricklingReaderParks: a peer whose socket takes each update just
// before its write budget runs out parks, and a peer that takes each well
// inside half a budget never does. Both ask for a full 640×480 Raw frame
// (1.2 MB, far past the small loopback buffers, so every write blocks
// until the peer reads) the moment the previous one has arrived, then
// pause before reading it: 3.5 s for the trickler, 300 ms for the steady
// peer. Were every update given a fresh budget, each of the trickler's
// writes would finish with half a second to spare, and it would hold a
// pool worker for most of every budget without ever parking.
func TestTricklingReaderParks(t *testing.T) {
	const w, h = uniint.DefaultWidth, uniint.DefaultHeight
	srv := uniserver.New(toolkit.NewDisplay(w, h), "trickle", nil)
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go srv.Serve(smallSendBuffers{ln})
	peers, err := workload.IdleFleet(2, func(int) (net.Conn, error) {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err == nil {
			err = c.(*net.TCPConn).SetReadBuffer(256 << 10)
		}
		return c, err
	})
	if err != nil {
		t.Fatal(err)
	}
	trickler, steady := peers[0], peers[1]

	limit := 2*uniserver.WriteBudget + time.Second
	start := time.Now()
	var wg sync.WaitGroup
	defer wg.Wait()
	defer trickler.Close()
	defer steady.Close()
	steadyErr := make(chan error, 1)
	for _, p := range []struct {
		c     net.Conn
		pause time.Duration
		errs  chan error
	}{
		{trickler, 3500 * time.Millisecond, nil},
		{steady, 300 * time.Millisecond, steadyErr},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			for err == nil && time.Since(start) < limit {
				if err = askRaw(p.c, w, h); err == nil {
					time.Sleep(p.pause)
					err = readRawUpdate(p.c)
				}
			}
			if p.errs != nil {
				p.errs <- err
			}
		}()
	}

	for srv.Parked() == 0 {
		if time.Since(start) > limit {
			t.Fatalf("the trickling peer was still served %v after its first request (bound %v)",
				time.Since(start), limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Logf("the trickling peer parked %v after its first request", time.Since(start).Round(time.Millisecond))
	if err := <-steadyErr; err != nil {
		t.Fatalf("the steady peer's link failed: %v", err)
	}
	if n := srv.Sessions(); n != 1 {
		t.Fatalf("%d sessions live after %v, want the steady peer's", n, limit)
	}
}

// TestSlowOnceThenIdleStillServed: a peer that takes one full frame slowly
// (2.5 s, over half a budget) but reads all of it, then sits idle past what
// was left of that update's budget, still gets its next small update. Only
// work that arrives inside a slow update's budget is denied a fresh one.
func TestSlowOnceThenIdleStillServed(t *testing.T) {
	const w, h = uniint.DefaultWidth, uniint.DefaultHeight
	srv := uniserver.New(toolkit.NewDisplay(w, h), "slow-once", nil)
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go srv.Serve(smallSendBuffers{ln})
	peers, err := workload.IdleFleet(1, func(int) (net.Conn, error) {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err == nil {
			err = c.(*net.TCPConn).SetReadBuffer(256 << 10)
		}
		return c, err
	})
	if err != nil {
		t.Fatal(err)
	}
	c := peers[0]
	defer c.Close()

	asked := time.Now()
	if err := askRaw(c, w, h); err != nil {
		t.Fatal(err)
	}
	time.Sleep(uniserver.WriteBudget * 5 / 8) // 2.5 s: the link takes the frame slowly
	if err := readRawUpdate(c); err != nil {
		t.Fatalf("the slow full frame: %v", err)
	}
	// Idle until half a second past the budget the slow frame was sent under.
	time.Sleep(time.Until(asked.Add(uniserver.WriteBudget + 500*time.Millisecond)))
	if err := askRaw(c, 16, 16); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(uniserver.WriteBudget))
	if err := readRawUpdate(c); err != nil {
		t.Fatalf("the small update after an idle gap: %v (parked: %d)", err, srv.Parked())
	}
	if n, p := srv.Sessions(), srv.Parked(); n != 1 || p != 0 {
		t.Fatalf("%d sessions live and %d parked, want the peer's one live", n, p)
	}
}

// askRaw asks for the w×h rectangle at the origin in Raw only.
func askRaw(c net.Conn, w, h int) error {
	_, err := c.Write([]byte{
		2, 0, 0, 1, 0, 0, 0, byte(rfb.EncRaw), // SetEncodings: Raw
		3, 0, 0, 0, 0, 0, byte(w >> 8), byte(w), byte(h >> 8), byte(h), // a full request
	})
	return err
}

// readRawUpdate reads one FramebufferUpdate of Raw rectangles in the
// server's native 32-bit format to its last byte.
func readRawUpdate(c net.Conn) error {
	var hdr [4]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		return err
	}
	for n := binary.BigEndian.Uint16(hdr[2:]); n > 0; n-- {
		var rect [12]byte
		if _, err := io.ReadFull(c, rect[:]); err != nil {
			return err
		}
		if enc := int32(binary.BigEndian.Uint32(rect[8:])); enc != rfb.EncRaw {
			return fmt.Errorf("a %s rectangle in a Raw-only update", rfb.EncodingName(enc))
		}
		rw, rh := int64(binary.BigEndian.Uint16(rect[4:])), int64(binary.BigEndian.Uint16(rect[6:]))
		if _, err := io.CopyN(io.Discard, c, rw*rh*4); err != nil {
			return err
		}
	}
	return nil
}

// TestCloseMidHandshake: a client that routes into a home, reads the
// server's protocol version and then says nothing pins its home from
// inside the server's handshake. Hub.Close closes that connection and
// returns within a second, leaving nothing behind, instead of waiting out
// uniserver.HandshakeTimeout.
func TestCloseMidHandshake(t *testing.T) {
	leakcheck.Check(t, 0)
	h, err := hub.New(hub.Options{
		Factory: func(id string) (hub.Host, error) { return uniint.NewSessionForHub(uniint.Options{Name: id}) },
		Metrics: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := h.Admit("quiet"); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- h.Serve(ln) }()
	defer func() { ln.Close(); <-served }()
	quiet, err := hub.DialHome(ln.Addr().String(), "quiet")
	if err != nil {
		t.Fatal(err)
	}
	defer quiet.Close()
	if _, err := io.ReadFull(quiet, make([]byte, len(rfb.ProtocolVersion))); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	h.Close()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v with a client mid-handshake", d)
	}
	_ = quiet.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := quiet.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("quiet client read %v after Close, want EOF", err)
	}
}
