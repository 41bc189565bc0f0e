package uniserver

import (
	"runtime"
	"testing"
	"time"

	"uniint/internal/gfx"
	"uniint/internal/rfb"
	"uniint/internal/toolkit"
)

// heapAfterGC returns the live heap once the collector has run twice (the
// second cycle empties the sync.Pool victim caches the first one filled).
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// paintAndPark connects a client, paints its whole framebuffer, and drops
// the link, returning the client once its session waits in the lot.
func (h *lotHarness) paintAndPark(full gfx.Rect) *rfb.ClientConn {
	h.t.Helper()
	client, _ := h.connect("")
	client.RequestUpdate(false, full)
	waitFor(h.t, "client painted", func() bool { return shadowMatches(h.display, client) })
	client.Close()
	waitFor(h.t, "session parked", func() bool { return h.srv.HasParked(client.Token()) })
	return client
}

// resume reconnects under away's token, adopts the pixels away's client
// kept, and asks for what it missed. It returns the resumed client and the
// area the resync covered once the client shows exactly the display.
func (h *lotHarness) resume(away *rfb.ClientConn, full gfx.Rect) (*rfb.ClientConn, int) {
	h.t.Helper()
	back, rec := h.connect(away.Token())
	h.t.Cleanup(func() { back.Close() })
	if !back.Resumed() {
		h.t.Fatal("resume of the parked session missed")
	}
	back.AdoptShadow(away)
	back.SetEncodings([]int32{rfb.EncCopyRect, rfb.EncHextile, rfb.EncRaw})
	back.RequestUpdate(true, full)
	waitFor(h.t, "resumed client shows the display", func() bool { return shadowMatches(h.display, back) })
	_, rects := rec.snapshot()
	area := 0
	for _, r := range rects {
		area += r.Area()
	}
	return back, area
}

// TestParkedSessionHoldsNoPixels: a parked session keeps its damage, input
// and pointer mask but no copy of the client's framebuffer, so a lot of 32
// sessions of a 640×480 display (1.2 MB of pixels each while connected)
// costs a few KB per entry. One of them, resumed long after it parked,
// still resyncs with only the damage it missed, onto the pixels its client
// kept, byte-identical.
func TestParkedSessionHoldsNoPixels(t *testing.T) {
	const parked, perEntryMax = 32, 16 << 10
	display := toolkit.NewDisplay(640, 480)
	lbl := toolkit.NewLabel("steady")
	root := toolkit.NewPanel(toolkit.VBox{Gap: 2, Padding: 2})
	root.Add(lbl)
	display.SetRoot(root)
	h := &lotHarness{t: t, display: display, srv: New(display, "lot footprint", Config{})}
	t.Cleanup(h.srv.Close)
	full := gfx.R(0, 0, 640, 480)

	// The session resumed at the end parks before the baseline, so its
	// client's framebuffer (kept for the resume) is in both readings.
	away := h.paintAndPark(full)
	parkedAt := time.Now()
	base := heapAfterGC()
	for i := 0; i < parked; i++ {
		h.paintAndPark(full)
	}
	if n := h.srv.Parked(); n != parked+1 {
		t.Fatalf("lot holds %d entries, want %d", n, parked+1)
	}
	grown := int64(heapAfterGC()) - int64(base)
	if grown > parked*perEntryMax {
		t.Fatalf("%d parked sessions grew the heap by %d B (%d B each), want under %d B each",
			parked, grown, grown/parked, perEntryMax)
	}
	t.Logf("%d B of heap per parked session", grown/parked)

	// Away for well over a roaming redial: the resume still ships only what
	// changed while detached.
	if d := 300*time.Millisecond - time.Since(parkedAt); d > 0 {
		time.Sleep(d)
	}
	display.Update(func() { lbl.SetText("while away") })
	if _, area := h.resume(away, full); area == 0 || area >= full.Area()/4 {
		t.Fatalf("resync covered %d px of %d: want only the detach damage", area, full.Area())
	}
}

// TestShadowlessImportResumesDistrusted: a migration record carries no
// pixels, so it resumes onto a client whose pixels the server has never
// seen. The resumed model must be synced to no frame: one that believed
// the client held the (black) display would ship the panel turning black
// as a 4-byte self-copy, leaving the client's old pixels on screen.
func TestShadowlessImportResumesDistrusted(t *testing.T) {
	h := newLotHarness(t, Config{})
	root := toolkit.NewPanel(toolkit.VBox{Gap: 2, Padding: 2})
	h.display.SetRoot(root)
	full := gfx.R(0, 0, 160, 120)

	away := h.paintAndPark(full)
	rec, ok := h.srv.ExportParked(away.Token())
	if !ok {
		t.Fatal("export of the parked session failed")
	}
	wire, err := rec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if rec, err = rfb.DecodeMigration(wire); err != nil {
		t.Fatal(err)
	}
	if err := h.srv.ImportParked(rec); err != nil {
		t.Fatal(err)
	}

	// The whole (light gray) panel turns black while the client is away.
	h.display.Update(func() { root.SetBackground(gfx.Black) })
	copies0 := counter("rfb_copyrect_unchanged_total")
	back, _ := h.resume(away, full)
	if d := counter("rfb_copyrect_unchanged_total") - copies0; d != 0 {
		t.Fatalf("%d self-copies before a full repaint synced the model", d)
	}
	if !shadowMatches(h.display, back) {
		t.Fatal("the resumed client does not show the display")
	}
	if c := back.Snapshot(full).At(80, 60); c != gfx.Black {
		t.Fatalf("the resumed client shows %06x mid-panel, want the black panel", uint32(c))
	}
}

// TestMigrationRecordCarriesNoPixels: a session shipped as a migration
// record resumes with only the detach damage, byte-identical.
func TestMigrationRecordCarriesNoPixels(t *testing.T) {
	h := newLotHarness(t, Config{})
	lbl := toolkit.NewLabel("steady")
	root := toolkit.NewPanel(toolkit.VBox{Gap: 2, Padding: 2})
	root.Add(lbl)
	h.display.SetRoot(root)
	full := gfx.R(0, 0, 160, 120)

	away := h.paintAndPark(full)
	rec, ok := h.srv.ExportParked(away.Token())
	if !ok {
		t.Fatal("export of the parked session failed")
	}
	wire, err := rec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if rec, err = rfb.DecodeMigration(wire); err != nil {
		t.Fatal(err)
	}
	if err := h.srv.ImportParked(rec); err != nil {
		t.Fatal(err)
	}

	h.display.Update(func() { lbl.SetText("while away") })
	if _, area := h.resume(away, full); area == 0 || area >= full.Area()/2 {
		t.Fatalf("resync covered %d px of %d: want only the detach damage", area, full.Area())
	}
}
