package uniserver

import (
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"uniint/internal/leakcheck"
	"uniint/internal/metrics"
	"uniint/internal/netsim"
	"uniint/internal/rfb"
	"uniint/internal/toolkit"
	"uniint/internal/workload"
)

// transports are the two ways client bytes reach a session: pushed by a
// readiness callback (no goroutine per session), or read by a goroutine
// parked in Attach. Every lifecycle test below runs over both.
var transports = []struct {
	name string
	pipe func() (client, server net.Conn)
}{
	{"EventPipe", func() (net.Conn, net.Conn) { c, s := netsim.EventPipe(); return c, s }},
	{"net.Pipe", net.Pipe},
}

// attachWire attaches one session over a fresh pipe, the client hello
// (optionally carrying a resume token) pipelined. Attach runs on its own
// goroutine — it returns after the handshake on an event pipe and when the
// session ends on a blocking one — and so does the hello write, which on
// the unbuffered net.Pipe completes only once the server reads it. onClose
// invocations are counted into the returned counter. It returns the client
// end with the server's handshake output unread.
func attachWire(t *testing.T, srv *Server, pipe func() (net.Conn, net.Conn), token string) (net.Conn, *atomic.Int32) {
	t.Helper()
	client, server := pipe()
	closes := new(atomic.Int32)
	go srv.Attach(server, func() { closes.Add(1) })
	go client.Write(rfb.ClientHello(token)) // a failure surfaces in readServerInit
	return client, closes
}

// edgeWire is attachWire over an event pipe, for tests of what happens
// after the transport is gone (parking, compression).
func edgeWire(t *testing.T, srv *Server, token string) net.Conn {
	t.Helper()
	client, _ := attachWire(t, srv, transports[0].pipe, token)
	return client
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
			srv := New(display, "edge test", Config{})
			defer srv.Close()

			client, closes := attachWire(t, srv, tr.pipe, "")
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
			waitFor(t, "session retired", func() bool { return srv.Sessions() == 0 })
			waitFor(t, "onClose", func() bool { return closes.Load() == 1 })
		})
	}
}

func TestEdgeDisconnectParksAndResumes(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			leakcheck.Check(t, 0)
			imbalance0 := parkImbalance(metrics.Default().Snapshot())
			display := toolkit.NewDisplay(160, 120)
			srv := New(display, "edge test", Config{})
			defer srv.Close()

			client, closes := attachWire(t, srv, tr.pipe, "")
			_, token := readServerInit(t, client)

			// Type a key so the parked state carries input accounting.
			key := []byte{4, 1, 0, 0, 0, 0, 0, 0x61}
			if _, err := client.Write(key); err != nil {
				t.Fatal(err)
			}
			client.Close()
			waitFor(t, "session parked", func() bool { return srv.Parked() == 1 })
			if !srv.HasParked(token) {
				t.Fatalf("HasParked(%q) = false after park", token)
			}
			waitFor(t, "onClose after park", func() bool { return closes.Load() == 1 })

			// Resume with the issued token on a fresh connection.
			client2, closes2 := attachWire(t, srv, tr.pipe, token)
			resumed, token2 := readServerInit(t, client2)
			if !resumed || token2 != token {
				t.Fatalf("resume: resumed=%v token=%q want %q", resumed, token2, token)
			}
			waitFor(t, "lot emptied", func() bool { return srv.Parked() == 0 })
			if closes2.Load() != 0 {
				t.Fatal("onClose ran while the resumed session is live")
			}

			// The onClose hook runs once after the resumed session retires,
			// and the accounting balances once the lot has settled.
			client2.Close()
			waitFor(t, "resumed session re-parked", func() bool { return srv.Parked() == 1 })
			waitFor(t, "onClose after resume", func() bool { return closes2.Load() == 1 })
			srv.Close()
			if closes.Load() != 1 || closes2.Load() != 1 {
				t.Errorf("onClose counts = %d, %d, want 1, 1", closes.Load(), closes2.Load())
			}
			if d := parkImbalance(metrics.Default().Snapshot()) - imbalance0; d != 0 {
				t.Errorf("park accounting identity off by %d", d)
			}
		})
	}
}

func TestEdgeCloseLeavesNoGoroutines(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			leakcheck.Check(t, 0)
			display := toolkit.NewDisplay(160, 120)
			srv := New(display, "edge test", Config{ParkTTL: -1})
			var clients []net.Conn
			var closes []*atomic.Int32
			for i := 0; i < 8; i++ {
				c, n := attachWire(t, srv, tr.pipe, "")
				readServerInit(t, c)
				clients, closes = append(clients, c), append(closes, n)
			}
			// The handshake reply precedes registration; Close only waits for
			// sessions it can see.
			waitFor(t, "sessions registered", func() bool { return srv.Sessions() == 8 })
			// Close with every session still attached: Close must disconnect
			// them and wait out every teardown (each onClose has run by the
			// time it returns).
			srv.Close()
			for i, n := range closes {
				if n.Load() != 1 {
					t.Errorf("session %d: onClose ran %d times by the time Close returned", i, n.Load())
				}
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
	srv := New(display, "edge fleet", Config{ParkTTL: -1})
	defer srv.Close()

	base := runtime.NumGoroutine()
	clients, err := workload.IdleFleet(sessions, func(conn net.Conn) error {
		return srv.Attach(conn, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Sessions(); got != sessions {
		t.Fatalf("Sessions() = %d, want %d", got, sessions)
	}
	// The core budget claim: goroutine count is independent of session
	// count. base already includes the process pool's workers; the fleet
	// may add at most transient turns (absorbed by Assert's settle loop) —
	// allow a small constant, nothing proportional to the 1000 sessions.
	leakcheck.Assert(t, base+8, "1k idle edge sessions")

	for _, c := range clients {
		c.Close()
	}
	waitFor(t, "fleet retired", func() bool { return srv.Sessions() == 0 })
}
