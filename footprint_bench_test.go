package uniint_test

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"uniint/internal/rfb"
	"uniint/internal/toolkit"
	"uniint/internal/uniserver"
	"uniint/internal/workload"
)

// BenchmarkSessionFootprint measures what one idle session COSTS on the
// path production runs: the heap bytes and goroutines a fleet of
// handshaked-and-silent loopback TCP sessions, accepted by Server.Serve,
// adds, divided per session. bytes/session is everything the session keeps
// — connection buffers, damage, input queue, wire model — and, since both
// ends of each socket live in this process, the client's file descriptor
// too. goroutines/session is the parked reader: exactly 1 in the CI
// baseline, so a second per-session goroutine anywhere in the attach path
// (2.0) fails the gate.
func BenchmarkSessionFootprint(b *testing.B) { sessionFootprint(b, 64, 48, 256, false) }

// BenchmarkSessionFootprintPainted is the same measurement at 640×480 with
// every session of the fleet having requested and shipped one full-frame
// update before the heap sample: a silent session never touches its wire
// model, so only this row shows what the model keeps once it has painted.
func BenchmarkSessionFootprintPainted(b *testing.B) { sessionFootprint(b, 640, 480, 64, true) }

// goroutineFlickerSlack is the absolute goroutine-count noise one sample
// may carry (see the delta computation below).
const goroutineFlickerSlack = 8

func sessionFootprint(b *testing.B, w, h, fleet int, paint bool) {
	display := toolkit.NewDisplay(w, h)
	if paint {
		root := toolkit.NewPanel(toolkit.VBox{Gap: 2, Padding: 2})
		root.Add(toolkit.NewLabel("Lamp ON  Volume 12"))
		display.SetRoot(root)
	}
	srv := uniserver.New(display, "footprint", uniserver.Config{ParkTTL: -1})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go srv.Serve(ln)
	connect := func(n int) []net.Conn {
		clients, err := workload.IdleFleet(n, func(int) (net.Conn, error) {
			return net.Dial("tcp", ln.Addr().String())
		})
		if err != nil {
			b.Fatal(err)
		}
		waitSessions(b, srv, n)
		for i := 0; paint && i < n; i++ {
			if err := paintOnce(clients[i], w, h); err != nil {
				b.Fatal(err)
			}
		}
		return clients
	}

	// Warm the process shape outside the measurement: one attach/detach
	// cycle starts the shared wheel driver and fills the scratch pools.
	connect(1)[0].Close()
	waitSessions(b, srv, 0)

	var bytesPer, goroutinesPer float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g0 := settledGoroutines()
		h0 := heapInUse()
		clients := connect(fleet)
		g1 := settledGoroutines()
		h1 := heapInUse()
		bytesPer += float64(int64(h1)-int64(h0)) / float64(fleet)
		// A couple of transient goroutines (a runtime timer mid-exit, GC
		// background work waking) can flicker into either sample. That
		// noise is absolute, not per-session, so the delta forgives a fixed
		// few — two orders of magnitude below the second
		// goroutine-per-session (fleet more goroutines) the gate exists to
		// catch. Only with this slack is the metric deterministically one.
		gd := g1 - g0
		if gd >= fleet-goroutineFlickerSlack && gd <= fleet+goroutineFlickerSlack {
			gd = fleet
		}
		goroutinesPer += float64(gd) / float64(fleet)
		for _, c := range clients {
			c.Close()
		}
		waitSessions(b, srv, 0)
	}
	b.ReportMetric(bytesPer/float64(b.N), "bytes/session")
	b.ReportMetric(goroutinesPer/float64(b.N), "goroutines/session")
}

// paintOnce has an idle-fleet client ask for its whole w×h framebuffer as
// RRE and read the update to its last byte, so the session has shipped a
// full frame and nothing is left unread in the socket.
func paintOnce(c net.Conn, w, h int) error {
	const bpp = 4 // the server's native 32-bit format, which the client keeps
	msg := []byte{
		2, 0, 0, 1, 0, 0, 0, byte(rfb.EncRRE), // SetEncodings: RRE
		3, 0, 0, 0, 0, 0, byte(w >> 8), byte(w), byte(h >> 8), byte(h), // a full request
	}
	if _, err := c.Write(msg); err != nil {
		return err
	}
	var hdr [4]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		return err
	}
	for n := binary.BigEndian.Uint16(hdr[2:]); n > 0; n-- {
		var rect [16]byte // rectangle header, then RRE's subrectangle count
		if _, err := io.ReadFull(c, rect[:]); err != nil {
			return err
		}
		if enc := int32(binary.BigEndian.Uint32(rect[8:])); enc != rfb.EncRRE {
			return fmt.Errorf("full-frame update carries a %s rectangle", rfb.EncodingName(enc))
		}
		subs := int64(binary.BigEndian.Uint32(rect[12:]))
		if _, err := io.CopyN(io.Discard, c, bpp+subs*(bpp+8)); err != nil {
			return err
		}
	}
	return nil
}

// heapInUse returns live heap bytes after a full collection, so fleet
// deltas measure retained session state rather than garbage.
func heapInUse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapInuse
}

// settledGoroutines samples the goroutine count once transient goroutines
// (pool turns handing off, a wheel driver noticing an empty wheel) have
// finished exiting.
func settledGoroutines() int {
	prev := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(time.Millisecond)
		n := runtime.NumGoroutine()
		if n >= prev {
			return n
		}
		prev = n
	}
	return prev
}

// waitSessions waits until srv serves exactly n sessions: a session
// registers just after its handshake reply, and retires just after its
// link closes.
func waitSessions(b *testing.B, srv *uniserver.Server, n int) {
	b.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Sessions() != n {
		if time.Now().After(deadline) {
			b.Fatalf("fleet of %d: %d sessions", n, srv.Sessions())
		}
		time.Sleep(time.Millisecond)
	}
}
