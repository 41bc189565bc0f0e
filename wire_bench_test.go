package uniint

// Wire-efficiency benchmarks gating the bytes-on-wire tier (CopyRect
// detection, dictionary zlib, shared tile cache — internal/rfb WireState):
//
//	BenchmarkE2bWire/adaptive  UI churn across 16 homes, content-adaptive
//	                           encodings only (the pre-tier cost model)
//	BenchmarkE2bWire/wire      the same churn through PrepareUpdateWire
//	                           with the full capability mask
//
// Both report wirebytes/op — the FramebufferUpdate size that would hit the
// network per widget flip. The committed baseline pins both values (see
// benchfmt Extra metrics), so the gate catches a regression that silently
// stops resolving tile references as well as one that bloats the adaptive
// encodings. TestWireReduction asserts the headline ratio: the wire tier
// ships at least 5× fewer steady-state bytes than adaptive-only.
//
// Setup uses real handshaken ServerConns over net.Pipe so the capability
// mask travels the protocol (SetEncodings → Serve → encMask) instead of
// being poked into the struct.

import (
	"net"
	"testing"

	"uniint/internal/gfx"
	"uniint/internal/rfb"
	"uniint/internal/toolkit"
	"uniint/internal/workload"
)

const (
	wireBenchHomes   = 16
	wireBenchWidgets = 16
	wireBenchW       = 320
	wireBenchH       = 240
	// wireBenchCycle is the scripted step-cycle length. Warmup applies the
	// full cycle, so a measured iteration only revisits content the tile
	// window has already seen — the steady state of a long-lived session.
	wireBenchCycle = 256
)

// wireBenchEncodings is what the proxy advertises (core.Dial) — tier
// encodings first, content-adaptive fallbacks after.
var wireBenchEncodings = []int32{
	rfb.EncTileRef, rfb.EncTileInstall, rfb.EncZlibDict,
	rfb.EncHextile, rfb.EncRRE, rfb.EncZlib, rfb.EncCopyRect, rfb.EncRaw,
}

// wireBenchAdaptiveEncodings is the pre-tier client: content-adaptive
// encodings only.
var wireBenchAdaptiveEncodings = []int32{
	rfb.EncHextile, rfb.EncRRE, rfb.EncZlib, rfb.EncRaw,
}

// wireBenchHome is one hub-hosted home reduced to the pieces the output
// path touches: a rendered control panel and a handshaken server
// connection (plus its wire model when the tier is on).
type wireBenchHome struct {
	d     *toolkit.Display
	scene *workload.UIScene
	conn  *rfb.ServerConn
	ws    *rfb.WireState // nil in the adaptive variant
}

// wireBenchSignal is the ServerHandler used to synchronize with the Serve
// goroutine: an UpdateRequest arriving proves every earlier client message
// (SetEncodings) has been processed, because Serve dispatches in order.
type wireBenchSignal struct{ ch chan struct{} }

func (h *wireBenchSignal) KeyEvent(rfb.KeyEvent)         {}
func (h *wireBenchSignal) PointerEvent(rfb.PointerEvent) {}
func (h *wireBenchSignal) CutText(string)                {}
func (h *wireBenchSignal) UpdateRequest(rfb.UpdateRequest) {
	select {
	case h.ch <- struct{}{}:
	default:
	}
}

// newWireBenchHomes builds n rendered homes, each behind a real handshake
// with the given advertised encodings. All homes share tiles (may be nil).
func newWireBenchHomes(tb testing.TB, n int, encs []int32, tiles *rfb.TileCache) []*wireBenchHome {
	tb.Helper()
	hs := make([]*wireBenchHome, n)
	for i := range hs {
		h := &wireBenchHome{
			d:     toolkit.NewDisplay(wireBenchW, wireBenchH),
			scene: workload.NewUIScene(wireBenchWidgets),
		}
		h.d.SetRoot(h.scene.Root)
		h.d.Render()

		sc, cc := net.Pipe()
		type res struct {
			conn *rfb.ServerConn
			err  error
		}
		srvCh := make(chan res, 1)
		go func() {
			conn, err := rfb.NewEdgeServerConn(sc, wireBenchW, wireBenchH, "wire bench", nil)
			srvCh <- res{conn, err}
		}()
		client, err := rfb.Dial(cc)
		if err != nil {
			tb.Fatalf("client handshake: %v", err)
		}
		sr := <-srvCh
		if sr.err != nil {
			tb.Fatalf("server handshake: %v", sr.err)
		}
		h.conn = sr.conn
		sig := &wireBenchSignal{ch: make(chan struct{}, 1)}
		go h.conn.Serve(sig)
		if err := client.SetEncodings(encs); err != nil {
			tb.Fatalf("set encodings: %v", err)
		}
		if err := client.RequestUpdate(false, gfx.R(0, 0, wireBenchW, wireBenchH)); err != nil {
			tb.Fatalf("request update: %v", err)
		}
		<-sig.ch // encoding mask is now negotiated server-side
		if tiles != nil {
			h.ws = rfb.NewWireState(tiles, wireBenchW, wireBenchH)
		}
		tb.Cleanup(func() {
			client.Close()
			h.conn.Close()
		})
		hs[i] = h
	}
	return hs
}

// wireBenchSteps pre-generates the deterministic non-echo step cycle both
// variants replay, so their inputs are byte-for-byte identical.
func wireBenchSteps(n int) []workload.UIStep {
	churn := workload.NewUIChurn(wireBenchHomes, wireBenchWidgets, 7)
	steps := make([]workload.UIStep, 0, n)
	for len(steps) < n {
		st := churn.Next()
		if st.Echo {
			continue
		}
		steps = append(steps, st)
	}
	return steps
}

// wireBenchRun returns the per-op closure: apply steps[i%cycle], render the
// damage, prepare (but not transmit) the update, return its wire size.
// All mutable state is hoisted so the steady-state op allocates nothing.
func wireBenchRun(tb testing.TB, hs []*wireBenchHome, steps []workload.UIStep) func(i int) int {
	ap := workload.NewUIChurn(wireBenchHomes, wireBenchWidgets, 0) // Apply is stateless; any instance works
	var (
		damage []gfx.Rect
		urs    []rfb.UpdateRect
		cur    *wireBenchHome
		st     workload.UIStep
		size   int
		failed error
	)
	apply := func() { ap.Apply(cur.scene, st) }
	encode := func(fb *gfx.Framebuffer) {
		urs = urs[:0]
		for _, r := range damage {
			urs = append(urs, rfb.UpdateRect{Rect: r, Encoding: rfb.EncAdaptive})
		}
		var (
			prep *rfb.PreparedUpdate
			err  error
		)
		if cur.ws != nil {
			prep, err = cur.conn.PrepareUpdateWire(fb, urs, cur.ws)
		} else {
			prep, err = cur.conn.PrepareUpdateWire(fb, urs, nil)
		}
		if err != nil {
			failed = err
			return
		}
		size = prep.Size()
		prep.Release()
	}
	return func(i int) int {
		st = steps[i%len(steps)]
		cur = hs[st.Home]
		size = 0
		cur.d.Update(apply)
		damage = cur.d.RenderInto(damage[:0])
		if len(damage) == 0 {
			return 0
		}
		cur.d.WithFramebuffer(encode)
		if failed != nil {
			tb.Fatal(failed)
		}
		return size
	}
}

// wireBenchPrime replays the cold join (one full-bounds paint per home,
// validating the shadow) and then two full step cycles, leaving every
// content hash the measured loop will produce resident in the tile
// windows — the steady state of a session that has been live a while.
func wireBenchPrime(tb testing.TB, hs []*wireBenchHome, run func(int) int) {
	tb.Helper()
	full := []rfb.UpdateRect{{Rect: gfx.R(0, 0, wireBenchW, wireBenchH), Encoding: rfb.EncAdaptive}}
	for _, h := range hs {
		var (
			prep *rfb.PreparedUpdate
			err  error
		)
		h.d.WithFramebuffer(func(fb *gfx.Framebuffer) {
			if h.ws != nil {
				prep, err = h.conn.PrepareUpdateWire(fb, full, h.ws)
			} else {
				prep, err = h.conn.PrepareUpdateWire(fb, full, nil)
			}
		})
		if err != nil {
			tb.Fatalf("cold-join paint: %v", err)
		}
		prep.Release()
	}
	for i := 0; i < 2*wireBenchCycle; i++ {
		run(i)
	}
}

// BenchmarkE2bWire is the bytes-on-wire benchmark behind the wire tier's
// acceptance number: steady-state UI churn across 16 hub homes, encoded
// once adaptive-only and once through the full tier. Compare the
// wirebytes/op metrics — ns/op additionally shows the CPU cost of the
// shadow bookkeeping.
func BenchmarkE2bWire(b *testing.B) {
	steps := wireBenchSteps(wireBenchCycle)
	variants := []struct {
		name  string
		encs  []int32
		tiles bool
	}{
		{"adaptive", wireBenchAdaptiveEncodings, false},
		{"wire", wireBenchEncodings, true},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var tiles *rfb.TileCache
			if v.tiles {
				tiles = rfb.NewTileCache(0)
			}
			hs := newWireBenchHomes(b, wireBenchHomes, v.encs, tiles)
			run := wireBenchRun(b, hs, steps)
			wireBenchPrime(b, hs, run)
			var bytes int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bytes += int64(run(i))
			}
			b.StopTimer()
			b.ReportMetric(float64(bytes)/float64(b.N), "wirebytes/op")
		})
	}
}

// TestWireReduction pins the headline acceptance ratio: over one full
// steady-state step cycle, the wire tier ships at least 5× fewer bytes
// than content-adaptive encoding of the identical damage stream.
func TestWireReduction(t *testing.T) {
	steps := wireBenchSteps(wireBenchCycle)
	measure := func(encs []int32, tiles *rfb.TileCache) int64 {
		hs := newWireBenchHomes(t, wireBenchHomes, encs, tiles)
		run := wireBenchRun(t, hs, steps)
		wireBenchPrime(t, hs, run)
		var total int64
		for i := 0; i < wireBenchCycle; i++ {
			total += int64(run(i))
		}
		return total
	}
	adaptive := measure(wireBenchAdaptiveEncodings, nil)
	wire := measure(wireBenchEncodings, rfb.NewTileCache(0))
	if adaptive == 0 || wire == 0 {
		t.Fatalf("degenerate byte counts: adaptive=%d wire=%d", adaptive, wire)
	}
	ratio := float64(adaptive) / float64(wire)
	t.Logf("steady-state cycle: adaptive %d bytes, wire %d bytes (%.1fx reduction)", adaptive, wire, ratio)
	if ratio < 5 {
		t.Errorf("wire tier reduction %.2fx below the 5x acceptance floor (adaptive %d bytes, wire %d bytes)",
			ratio, adaptive, wire)
	}
}
