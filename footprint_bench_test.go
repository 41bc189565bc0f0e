package uniint_test

import (
	"net"
	"runtime"
	"testing"
	"time"

	"uniint/internal/toolkit"
	"uniint/internal/uniserver"
	"uniint/internal/workload"
)

// BenchmarkSessionFootprint measures what one idle session COSTS on the
// path production runs: the heap bytes and goroutines a fleet of
// handshaked-and-silent loopback TCP sessions, accepted by Server.Serve,
// adds, divided per session. bytes/session is dominated by the wire model's
// shadow framebuffer (w·h·4) — both ends of each socket live in this
// process, so it also counts the client's file descriptor — and
// goroutines/session is the parked reader: exactly 1 in the CI baseline,
// so a second per-session goroutine anywhere in the attach path (2.0)
// fails the gate.
// goroutineFlickerSlack is the absolute goroutine-count noise one sample
// may carry (see the delta computation below).
const goroutineFlickerSlack = 8

func BenchmarkSessionFootprint(b *testing.B) {
	const fleet = 256
	display := toolkit.NewDisplay(64, 48)
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
		bytesPer += float64(int64(h1)-int64(h0)) / fleet
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
		goroutinesPer += float64(gd) / fleet
		for _, c := range clients {
			c.Close()
		}
		waitSessions(b, srv, 0)
	}
	b.ReportMetric(bytesPer/float64(b.N), "bytes/session")
	b.ReportMetric(goroutinesPer/float64(b.N), "goroutines/session")
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
