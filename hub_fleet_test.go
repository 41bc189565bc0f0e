package uniint_test

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"uniint"
	"uniint/internal/hub"
	"uniint/internal/leakcheck"
	"uniint/internal/metrics"
	"uniint/internal/rfb"
	"uniint/internal/toolkit"
	"uniint/internal/uniserver"
	"uniint/internal/workload"
)

// TestHubThousandIdleSessions is the acceptance test for the budgeted
// event runtime on the path production runs: one hub accepting 1000 idle
// sessions across 10 homes over loopback TCP (hub.Serve, the routing
// preamble, uniserver.Attach), each costing exactly the goroutine parked
// in its read loop — a second per-session goroutine anywhere in the stack
// fails the bounded assertion — and none once the fleet has gone.
func TestHubThousandIdleSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-session fleet")
	}
	leakcheck.Check(t, 0)
	const homes, sessions = 10, 1000

	h, err := hub.New(hub.Options{
		Factory: func(homeID string) (hub.Host, error) {
			return uniint.NewSessionForHub(uniint.Options{Width: 64, Height: 48, Name: homeID})
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
	defer ln.Close()
	go h.Serve(ln)

	// Build the households first: homes own legitimate goroutines
	// (middleware delivery, appliance simulators), and those must not be
	// charged to the per-session budget under test.
	ids := make([]string, homes)
	for i := range ids {
		ids[i] = fmt.Sprintf("home-%03d", i)
		if _, err := h.Admit(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	base := runtime.NumGoroutine()

	clients, err := workload.IdleFleet(sessions, func(i int) (net.Conn, error) {
		return hub.DialHome(ln.Addr().String(), ids[i%homes])
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Homes(); got != homes {
		t.Fatalf("Homes() = %d, want %d", got, homes)
	}
	if got := h.Connections(); got != int64(sessions) {
		t.Fatalf("Conns() = %d, want %d", got, sessions)
	}

	// The claim under test: an idle session costs its parked reader and
	// nothing else — base + sessions goroutines, give or take transient
	// pool turns.
	if n := runtime.NumGoroutine(); n < base+sessions {
		t.Errorf("%d goroutines with %d sessions connected, want a parked reader each (base %d)", n, sessions, base)
	}
	leakcheck.Assert(t, base+sessions+8, "1k idle hub sessions")

	// Disconnect the fleet; every route must unpin so hub accounting
	// returns to zero and Close does not spin on phantom connections, and
	// every reader must be gone.
	for _, c := range clients {
		c.Close()
	}
	deadline := time.Now().Add(10 * time.Second)
	for h.Connections() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("Conns() = %d after fleet close", h.Connections())
		}
		time.Sleep(2 * time.Millisecond)
	}
	leakcheck.Assert(t, base+8, "1k idle hub sessions closed")
}

// TestHubRouteUnpinsBeforeReturning: Route holds its pin for exactly as
// long as it runs. On every way out of a session — the peer closes, the
// handshake fails, another connection takes it over — the connection is no
// longer counted the instant Route returns, and a session that retired is
// already in the lot. (TestHubAttachEdgeErrors has the closed-hub exit.)
func TestHubRouteUnpinsBeforeReturning(t *testing.T) {
	leakcheck.Check(t, 0)
	srv := uniserver.New(toolkit.NewDisplay(64, 48), "route-exits", uniserver.Config{})
	h, err := hub.New(hub.Options{
		Factory: func(string) (hub.Host, error) { return srv, nil },
		Metrics: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	// route runs Route on its own goroutine and returns the client end and
	// a channel yielding Connections() as read the instant Route returned.
	route := func() (net.Conn, <-chan int64) {
		server, client := net.Pipe()
		left := make(chan int64, 1)
		go func() { h.Route("home", server); left <- h.Connections() }()
		return client, left
	}
	left := func(what string, ch <-chan int64, want int64) {
		t.Helper()
		select {
		case got := <-ch:
			if got != want {
				t.Fatalf("%s: Connections() = %d when Route returned, want %d", what, got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: Route still running", what)
		}
	}

	conn, gone := route()
	a, err := rfb.Dial(conn)
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	left("peer close", gone, 0)
	if !srv.HasParked(a.Token()) {
		t.Fatal("peer close: session not in the lot when Route returned")
	}

	conn, gone = route()
	go io.Copy(io.Discard, conn)
	conn.Write([]byte("NOT A HELLO\n"))
	left("handshake failure", gone, 0)
	conn.Close()

	conn, goneA := route()
	if a, err = rfb.DialResume(conn, a.Token()); err != nil || !a.Resumed() {
		t.Fatalf("resume: %v", err)
	}
	go a.Run(nil)
	conn, goneB := route()
	b, err := rfb.DialResume(conn, a.Token())
	if err != nil || !b.Resumed() {
		t.Fatalf("takeover: %v", err)
	}
	left("takeover", goneA, 1) // B's pin
	b.Close()
	left("peer close after takeover", goneB, 0)
}

// TestHubAttachEdgeErrors exercises Route's paths around a home that is
// only a ConnHandler: a conn is served through the adapter and unpinned
// when the handler returns, and a closed hub refuses the attach and closes
// the conn.
func TestHubAttachEdgeErrors(t *testing.T) {
	home := &plainHome{}
	h, err := hub.New(hub.Options{
		Factory: func(string) (hub.Host, error) { return hub.AdaptConnHandler(home), nil },
		Metrics: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := net.Pipe()
	defer a.Close()
	if err := h.Route("x", b); err != nil {
		t.Fatalf("Route to an adapted home = %v", err)
	}
	if home.served != 1 || h.Connections() != 0 {
		t.Fatalf("served %d conns, %d still pinned", home.served, h.Connections())
	}
	h.Close()
	c, d := net.Pipe()
	if err := h.Route("x", d); err != hub.ErrClosed || h.Connections() != 0 {
		t.Fatalf("Route on a closed hub = %v with %d pinned, want ErrClosed and none", err, h.Connections())
	}
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("refused conn not closed: read err %v", err)
	}
}

type plainHome struct{ served int }

func (p *plainHome) HandleConn(conn net.Conn) error { p.served++; conn.Close(); return nil }
func (*plainHome) Close()                           {}
