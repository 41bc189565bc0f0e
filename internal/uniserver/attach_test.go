package uniserver

import (
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"uniint/internal/leakcheck"
	"uniint/internal/metrics"
	"uniint/internal/rfb"
	"uniint/internal/toolkit"
	"uniint/internal/workload"
)

// transports are the blocking transports the lifecycle tests below run
// over: the synchronous in-process pipe (every write waits for its read),
// and the loopback TCP socket production serves.
var transports = []struct {
	name string
	pipe func(t *testing.T) (client, server net.Conn)
}{
	{"net.Pipe", func(*testing.T) (net.Conn, net.Conn) { return net.Pipe() }},
	{"tcp", tcpPipe},
}

// tcpPipe returns the two ends of one loopback TCP connection.
func tcpPipe(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if server, err = ln.Accept(); err != nil {
		t.Fatal(err)
	}
	return client, server
}

// attachWire attaches one session over a fresh connection, the client hello
// (optionally carrying a resume token) pipelined. Attach runs on its own
// goroutine for the session's life, and so does the hello write, which on
// the unbuffered net.Pipe completes only once the server reads it. It
// returns the client end with the server's handshake output unread, and a
// channel that yields Attach's result when it returns.
func attachWire(t *testing.T, srv *Server, pipe func(*testing.T) (net.Conn, net.Conn), token string) (net.Conn, <-chan error) {
	t.Helper()
	client, server := pipe(t)
	done := make(chan error, 1)
	go func() { done <- srv.Attach(server) }()
	go client.Write(rfb.ClientHello(token)) // a failure surfaces in readServerInit
	return client, done
}

// pipeWire is attachWire over net.Pipe, for tests of what happens after
// the transport is gone (parking, compression).
func pipeWire(t *testing.T, srv *Server, token string) net.Conn {
	t.Helper()
	client, _ := attachWire(t, srv, transports[0].pipe, token)
	return client
}

// returned waits for Attach to return.
func returned(t *testing.T, done <-chan error) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Attach still running")
	}
}

// readServerInit reads and parses the server handshake: version + security
// word + ServerInit, returning the resumed verdict and the issued session
// token.
func readServerInit(t *testing.T, client net.Conn) (resumed bool, token string) {
	t.Helper()
	client.SetReadDeadline(time.Now().Add(2 * time.Second))
	defer client.SetReadDeadline(time.Time{})
	read := func(n int) []byte {
		b := make([]byte, n)
		if _, err := io.ReadFull(client, b); err != nil {
			t.Fatalf("handshake read: %v", err)
		}
		return b
	}
	// version(12) + security(4) + w,h(4) + pf(16) + namelen(4).
	hs := read(40)
	read(int(uint32(hs[36])<<24 | uint32(hs[37])<<16 | uint32(hs[38])<<8 | uint32(hs[39])))
	ext := read(2)
	return ext[0] == 1, string(read(int(ext[1])))
}

func TestAttachEdgeServesUpdates(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			leakcheck.Check(t, 0)
			display := toolkit.NewDisplay(160, 120)
			srv := New(display, "attach test", nil)
			defer srv.Close()

			client, done := attachWire(t, srv, tr.pipe, "")
			resumed, token := readServerInit(t, client)
			if resumed || token == "" {
				t.Fatalf("fresh session: resumed=%v token=%q", resumed, token)
			}

			// A full-frame request must produce a framebuffer update with
			// zero client goroutines: write the request, read the reply's
			// message type.
			req := []byte{3, 0, 0, 0, 0, 0, 0, 160, 0, 120}
			if _, err := client.Write(req); err != nil {
				t.Fatal(err)
			}
			client.SetReadDeadline(time.Now().Add(2 * time.Second))
			var msg [1]byte
			if _, err := io.ReadFull(client, msg[:]); err != nil || msg[0] != 0 {
				t.Fatalf("framebuffer update: type %d, err %v", msg[0], err)
			}
			client.Close()
			returned(t, done)
			if n := srv.Sessions(); n != 0 {
				t.Fatalf("Attach returned with %d sessions still live", n)
			}
		})
	}
}

func TestEdgeDisconnectParksAndResumes(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			leakcheck.Check(t, 0)
			imbalance0 := parkImbalance(metrics.Default().Snapshot())
			display := toolkit.NewDisplay(160, 120)
			srv := New(display, "attach test", nil)
			defer srv.Close()

			client, done := attachWire(t, srv, tr.pipe, "")
			_, token := readServerInit(t, client)

			// Type a key so the parked state carries input accounting.
			key := []byte{4, 1, 0, 0, 0, 0, 0, 0x61}
			if _, err := client.Write(key); err != nil {
				t.Fatal(err)
			}
			client.Close()
			returned(t, done)
			if !srv.HasParked(token) || srv.Parked() != 1 {
				t.Fatalf("after Attach returned: HasParked(%q) = false, Parked() = %d", token, srv.Parked())
			}

			// Resume with the issued token on a fresh connection.
			client2, done2 := attachWire(t, srv, tr.pipe, token)
			resumed, token2 := readServerInit(t, client2)
			if !resumed || token2 != token {
				t.Fatalf("resume: resumed=%v token=%q want %q", resumed, token2, token)
			}
			waitFor(t, "lot emptied", func() bool { return srv.Parked() == 0 })
			select {
			case err := <-done2:
				t.Fatalf("Attach returned %v while the resumed session is live", err)
			default:
			}

			// The resumed session parks again, and the accounting balances
			// once the lot has settled.
			client2.Close()
			returned(t, done2)
			if srv.Parked() != 1 {
				t.Fatalf("resumed session not re-parked: Parked() = %d", srv.Parked())
			}
			srv.Close()
			if d := parkImbalance(metrics.Default().Snapshot()) - imbalance0; d != 0 {
				t.Errorf("park accounting identity off by %d", d)
			}
		})
	}
}

// TestAttachReturnsAfterRetire pins teardown's order as callers see it: by
// the time Attach returns the session has left server_sessions and its
// token is already in the lot, so whoever waited on Attach (the hub's
// unpin) never observes a session that is neither live nor parked.
func TestAttachReturnsAfterRetire(t *testing.T) {
	leakcheck.Check(t, 0)
	srv := New(toolkit.NewDisplay(64, 48), "retire order", nil)
	defer srv.Close()
	for round := 0; round < 20; round++ {
		sessions0 := gauge("server_sessions")
		client, done := attachWire(t, srv, tcpPipe, "")
		_, token := readServerInit(t, client)
		waitFor(t, "session registered", func() bool { return srv.Sessions() == 1 })
		client.Close()
		returned(t, done)
		if d := gauge("server_sessions") - sessions0; d != 0 {
			t.Fatalf("round %d: server_sessions still up by %d when Attach returned", round, d)
		}
		if st := stateOf(srv, token); st != parked {
			t.Fatalf("round %d: token in state %d, not parked, when Attach returned", round, st)
		}
	}
}

func TestEdgeCloseLeavesNoGoroutines(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			leakcheck.Check(t, 0)
			display := toolkit.NewDisplay(160, 120)
			srv := New(display, "attach test", nil)
			var clients []net.Conn
			var dones []<-chan error
			for i := 0; i < 8; i++ {
				c, done := attachWire(t, srv, tr.pipe, "")
				readServerInit(t, c)
				clients, dones = append(clients, c), append(dones, done)
			}
			// The handshake reply precedes registration; Close only waits for
			// sessions it can see.
			waitFor(t, "sessions registered", func() bool { return srv.Sessions() == 8 })
			// Close with every session still attached: Close must disconnect
			// them and wait out every teardown, so each Attach is on its way
			// out by the time it returns.
			srv.Close()
			for _, done := range dones {
				returned(t, done)
			}
			for _, c := range clients {
				c.Close()
			}
		})
	}
}

func TestThousandIdleEdgeSessionsBoundedGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-session fleet")
	}
	leakcheck.Check(t, 0)
	const sessions = 1000
	display := toolkit.NewDisplay(32, 24)
	srv := New(display, "idle fleet", nil)
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() { ln.Close(); <-served }()

	base := runtime.NumGoroutine()
	clients, err := workload.IdleFleet(sessions, func(int) (net.Conn, error) {
		return net.Dial("tcp", ln.Addr().String())
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "fleet registered", func() bool { return srv.Sessions() == sessions })
	// The budget claim: an idle session costs exactly its parked reader.
	// base already includes the process pool's workers and the accept
	// loop; the fleet may add transient turns (absorbed by Assert's settle
	// loop) — a small constant, and one goroutine per session.
	if n := runtime.NumGoroutine(); n < base+sessions {
		t.Errorf("%d goroutines with %d sessions connected, want a parked reader each (base %d)", n, sessions, base)
	}
	// A goroutine budget, not a leak check: Assert counts, and the fleet is
	// meant to be alive here.
	leakcheck.Assert(t, base+sessions+8, "1k idle sessions")

	for _, c := range clients {
		c.Close()
	}
	waitFor(t, "fleet retired", func() bool { return srv.Sessions() == 0 })
	// The budget again, with the server still open: the stack check at
	// cleanup proves Close joined everything.
	leakcheck.Assert(t, base+8, "1k idle sessions closed")
}
