package rfb

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"uniint/internal/gfx"
)

// gradientFrame fills a frame with pixels unique per coordinate, so no
// two regions ever match by accident.
func gradientFrame(w, h int) *gfx.Framebuffer {
	f := gfx.NewFramebuffer(w, h)
	pix := f.Pix()
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			pix[y*w+x] = gfx.RGB(uint8(x), uint8(y), uint8(x*31+y*17))
		}
	}
	return f
}

const allEncBits = encBitRaw | encBitRRE | encBitHextile | encBitZlib |
	encBitZlibDict | encBitCopyRect | encBitTileRef | encBitTileInstall

// TestWireStateResetForcesReinstall: Reset models a resumed session — the
// reconnecting client's tile memory is empty and its framebuffer unknown,
// so previously referenced tiles must re-install and CopyRect must stay
// off until a full-bounds repaint syncs the model again.
func TestWireStateResetForcesReinstall(t *testing.T) {
	const w, h = 64, 64
	pf := gfx.PF32()
	fb := gradientFrame(w, h)
	ws := NewWireState(NewTileCache(0), w, h)
	sc := getScratch()
	defer putScratch(sc)

	r := gfx.R(8, 8, 40, 20)
	encodeOnce := func() int32 {
		ur := &UpdateRect{Rect: r, Encoding: EncAdaptive}
		_, enc, err := ws.selectAndEncode(nil, fb, ur, pf, allEncBits, EncRaw, sc)
		if err != nil {
			t.Fatal(err)
		}
		ws.commit(fb, ur)
		return enc
	}

	if enc := encodeOnce(); enc != EncTileInstall {
		t.Fatalf("first sight encoded as %s, want TileInstall", EncodingName(enc))
	}
	if enc := encodeOnce(); enc != EncTileRef {
		t.Fatalf("second sight encoded as %s, want TileRef", EncodingName(enc))
	}

	ws.Reset()
	if enc := encodeOnce(); enc != EncTileInstall {
		t.Fatalf("post-Reset sight encoded as %s, want TileInstall (client memory is fresh)", EncodingName(enc))
	}

	// The model is synced to no frame after Reset: identical content that
	// would self-copy must not choose CopyRect until a full-bounds rect
	// ships.
	big := gfx.R(0, 0, 64, 40)
	ur := &UpdateRect{Rect: big, Encoding: EncAdaptive}
	_, enc, err := ws.selectAndEncode(nil, fb, ur, pf, encBitRaw|encBitCopyRect, EncRaw, sc)
	if err != nil {
		t.Fatal(err)
	}
	if enc == EncCopyRect {
		t.Fatal("CopyRect chosen against a model synced to no frame")
	}
	ws.commit(fb, ur)

	fullUR := &UpdateRect{Rect: fb.Bounds(), Encoding: EncRaw}
	ws.commit(fb, fullUR)
	ur = &UpdateRect{Rect: big, Encoding: EncAdaptive}
	_, enc, err = ws.selectAndEncode(nil, fb, ur, pf, encBitRaw|encBitCopyRect, EncRaw, sc)
	if err != nil {
		t.Fatal(err)
	}
	if enc != EncCopyRect {
		t.Fatalf("unchanged content after the full repaint encoded as %s, want CopyRect self-copy", EncodingName(enc))
	}
}

// TestTileCacheEvictionUnderPressure: the shared cache honors its byte
// budget by evicting least-recently-used bodies, and a session whose tile
// was evicted re-encodes a byte-identical install body (the encoders are
// deterministic), so eviction costs CPU, never correctness.
func TestTileCacheEvictionUnderPressure(t *testing.T) {
	const w, h = 64, 64
	pf := gfx.PF32()
	fb := gradientFrame(w, h)
	r := gfx.R(4, 4, 48, 24)

	install := func(tc *TileCache) []byte {
		ws := NewWireState(tc, w, h)
		sc := getScratch()
		defer putScratch(sc)
		ur := &UpdateRect{Rect: r, Encoding: EncAdaptive}
		body, enc, err := ws.selectAndEncode(nil, fb, ur, pf, allEncBits, EncRaw, sc)
		if err != nil {
			t.Fatal(err)
		}
		if enc != EncTileInstall {
			t.Fatalf("encoded as %s, want TileInstall", EncodingName(enc))
		}
		return body
	}

	tc := NewTileCache(1 << 10)
	first := install(tc)
	if tc.Len() != 1 {
		t.Fatalf("cache holds %d tiles after one install, want 1", tc.Len())
	}

	// Memory pressure: filler bodies blow the 1KB budget many times over,
	// evicting the real tile.
	filler := make([]byte, 300)
	for i := range filler {
		filler[i] = byte(i)
	}
	for i := 0; i < 32; i++ {
		tc.Put(tileKey{key: gfx.Key{uint64(i) + 1e6}, pf: pf}, EncRaw, filler)
	}
	if got := tc.Bytes(); got > 1<<10 {
		t.Fatalf("cache holds %d bytes, budget is %d", got, 1<<10)
	}
	if _, _, ok := tc.Get(tileKey{key: fb.Key(r), pf: pf, kind: EncTileInstall}); ok {
		t.Fatal("original tile survived 32 filler installs in a ~3-body budget")
	}

	// A second session (fresh window) reinstalls the evicted tile; the
	// re-encoded body is byte-identical to the first.
	second := install(tc)
	if !bytes.Equal(first, second) {
		t.Fatalf("reinstalled body differs from original: %d vs %d bytes", len(second), len(first))
	}
}

// TestTileWindowClientLockstep: drive a random install/ref stream through
// the server's key window and, as wire bodies, through the client's
// decode, past eviction churn several times the window capacity. The
// protocol invariants under test: every id the server window still holds
// (every EncTileRef it would emit) decodes from the client's tile memory,
// and both ends hold the same ids in the same LRU order. The window
// allocates nothing until a tile is installed, and never grows past its
// capacity.
func TestTileWindowClientLockstep(t *testing.T) {
	const w, h = 16, 16
	pf := gfx.PF32()
	fb := gradientFrame(w, h)
	got := gfx.NewFramebuffer(w, h)
	r := gfx.R(0, 0, 8, 8)

	var win tileLRU[gfx.Key]
	win.init()
	if win.slots != nil || win.index != nil {
		t.Fatal("an empty window allocated")
	}
	dsc := &decodeScratch{}

	rng := rand.New(rand.NewSource(11))
	keys := make([]gfx.Key, 3*tileWindowCap)
	for i := range keys {
		keys[i] = gfx.Key{uint64(i) + 7, uint64(i)}
	}
	refs := 0
	for i := 0; i < 8*tileWindowCap; i++ {
		k := keys[rng.Intn(len(keys))]
		id := tileID(k)
		enc, body := EncTileRef, be.AppendUint64(nil, id)
		if held := win.get(id); held != nil && *held == k {
			refs++
		} else {
			*win.put(id) = k
			enc, body = EncTileInstall, encodeRaw(be.AppendUint32(body, uint32(EncRaw)), fb, r, pf)
		}
		if err := decodeRect(bytes.NewReader(body), enc, got, r, pf, dsc); err != nil {
			t.Fatalf("op %d: %s of %x: %v", i, EncodingName(enc), k, err)
		}
	}
	if refs == 0 {
		t.Fatal("stream produced no refs — the test exercised nothing")
	}
	var server, client []uint64
	for i := win.head; i >= 0; i = win.slots[i].next {
		server = append(server, win.slots[i].id)
	}
	for i := dsc.tiles.head; i >= 0; i = dsc.tiles.slots[i].next {
		client = append(client, dsc.tiles.slots[i].id)
	}
	if len(win.slots) != tileWindowCap || !slices.Equal(server, client) {
		t.Fatalf("server window holds %d of %d slots in an LRU order the client's %d entries do not match",
			len(server), len(win.slots), len(client))
	}
}

// TestTileIDCollisionRepaintsExactly forces every tile onto one wire id
// and alternates two contents in one rectangle: an id the window holds
// under another key re-installs, so after every flush the client's frame
// equals the server's. Referencing the id instead would paint the other
// content.
func TestTileIDCollisionRepaintsExactly(t *testing.T) {
	defer func(m uint64) { tileIDMask = m }(tileIDMask)
	tileIDMask = 0
	const w, h = 320, 64 // larger than a tile, so the first, full repaint is none
	server, client, sh, ch := pipePair(t, w, h)
	if err := client.SetEncodings([]int32{EncTileInstall, EncTileRef, EncRaw}); err != nil {
		t.Fatal(err)
	}
	fb := gradientFrame(w, h)
	ws := NewWireState(NewTileCache(0), w, h)
	r := gfx.R(8, 8, 32, 16)
	flush := func(rect gfx.Rect) {
		t.Helper()
		if err := client.RequestUpdate(false, fb.Bounds()); err != nil {
			t.Fatal(err)
		}
		waitSig(t, sh.gotReq, "request")
		prep, err := server.PrepareUpdateWire(fb, []UpdateRect{{Rect: rect, Encoding: EncAdaptive}}, ws)
		if err != nil {
			t.Fatal(err)
		}
		if err := server.SendPrepared(prep); err != nil {
			t.Fatal(err)
		}
		waitSig(t, ch.gotUpd, "update")
	}
	flush(fb.Bounds())
	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			fb.Fill(r, gfx.Red)
			gfx.DrawText(fb, r.X+2, r.Y+4, "ON", gfx.White)
		} else {
			fb.Fill(r, gfx.Blue)
		}
		flush(r)
		if !client.Snapshot(fb.Bounds()).Equal(fb) {
			t.Fatalf("flush %d: the client's frame differs from the server's", i)
		}
	}
}

// TestWireEncodingsDecodeIdenticalToRaw: for random frames and rects, the
// new wire forms (dictionary zlib, tile install, tile ref) paint exactly
// the pixels a raw encode of the same rect paints.
func TestWireEncodingsDecodeIdenticalToRaw(t *testing.T) {
	formats := []gfx.PixelFormat{gfx.PF32(), gfx.PF16(), gfx.PF8()}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		w := 33 + rng.Intn(48)
		h := 33 + rng.Intn(48)
		frame := randomFrame(rng, w, h)
		r := gfx.R(rng.Intn(w/2), rng.Intn(h/2), 1+rng.Intn(w/2), 1+rng.Intn(h/2)).
			Intersect(frame.Bounds())
		if r.Empty() {
			continue
		}
		for _, pf := range formats {
			// Reference: what a raw round-trip paints.
			want := gfx.NewFramebuffer(w, h)
			raw, err := EncodeRectInto(nil, EncRaw, frame, r, pf)
			if err != nil {
				t.Fatal(err)
			}
			if err := decodeRect(bytes.NewReader(raw), EncRaw, want, r, pf, &decodeScratch{}); err != nil {
				t.Fatal(err)
			}

			check := func(name string, got *gfx.Framebuffer) {
				t.Helper()
				for y := r.Y; y < r.MaxY(); y++ {
					for x := r.X; x < r.MaxX(); x++ {
						if got.At(x, y) != want.At(x, y) {
							t.Fatalf("trial %d pf %d-bit %s: pixel (%d,%d) = %06x, raw paints %06x",
								trial, pf.BitsPerPixel, name, x, y, got.At(x, y), want.At(x, y))
						}
					}
				}
			}

			// Dictionary zlib.
			zd, err := EncodeRectInto(nil, EncZlibDict, frame, r, pf)
			if err != nil {
				t.Fatal(err)
			}
			got := gfx.NewFramebuffer(w, h)
			if err := decodeRect(bytes.NewReader(zd), EncZlibDict, got, r, pf, &decodeScratch{}); err != nil {
				t.Fatal(err)
			}
			check("zlibdict", got)

			// Tile install, then a ref replaying it elsewhere-in-time: decode
			// both against one connection scratch (shared tile memory).
			ws := NewWireState(NewTileCache(0), w, h)
			sc := getScratch()
			ur := &UpdateRect{Rect: r, Encoding: EncAdaptive}
			inst, enc, err := ws.selectAndEncode(nil, frame, ur, pf, allEncBits, EncRaw, sc)
			putScratch(sc)
			if err != nil {
				t.Fatal(err)
			}
			if enc != EncTileInstall {
				// Rect exceeded tile bounds for this trial; the adaptive pick
				// is covered by the existing round-trip property.
				continue
			}
			dsc := &decodeScratch{}
			got = gfx.NewFramebuffer(w, h)
			if err := decodeRect(bytes.NewReader(inst), EncTileInstall, got, r, pf, dsc); err != nil {
				t.Fatal(err)
			}
			check("tileinstall", got)

			ref := make([]byte, 8)
			be.PutUint64(ref, tileID(frame.Key(r)))
			got = gfx.NewFramebuffer(w, h)
			if err := decodeRect(bytes.NewReader(ref), EncTileRef, got, r, pf, dsc); err != nil {
				t.Fatal(err)
			}
			check("tileref", got)
		}
	}
}

// TestTileRefUnknownHashRejected: a ref naming a hash the connection never
// installed is a protocol violation, not a silent black rectangle.
func TestTileRefUnknownHashRejected(t *testing.T) {
	fb := gfx.NewFramebuffer(32, 32)
	ref := make([]byte, 8)
	be.PutUint64(ref, 0xDEADBEEF)
	err := decodeRect(bytes.NewReader(ref), EncTileRef, fb, gfx.R(0, 0, 8, 8), gfx.PF32(), &decodeScratch{})
	if err == nil {
		t.Fatal("unknown tile ref decoded without error")
	}
}

// panelFrame paints GUI-like content — a light fill with rows of text —
// that the adaptive probe hands to hextile, so a large enough rectangle
// of it upgrades to dictionary zlib.
func panelFrame(w, h int) *gfx.Framebuffer {
	f := gfx.NewFramebuffer(w, h)
	f.Clear(gfx.LightGray)
	for y := 2; y+gfx.GlyphH < h; y += gfx.GlyphH + 3 {
		gfx.DrawText(f, 2, y, "Lamp ON  Volume 12  Channel 7", gfx.Black)
	}
	return f
}

// TestDictMemoHitMatchesFreshEncode: a second session shipping the same
// full frame over the same cache takes the memoised body, and that body
// is byte-identical to a fresh encodeZlibDict of the frame; a banded full
// repaint does the same for every band.
func TestDictMemoHitMatchesFreshEncode(t *testing.T) {
	const w, h = 160, 120
	fb := panelFrame(w, h)
	cache := NewTileCache(0)
	sc := getScratch()
	defer putScratch(sc)
	for _, pf := range []gfx.PixelFormat{gfx.PF32(), gfx.PF16()} {
		fresh, err := EncodeRectInto(nil, EncZlibDict, fb, fb.Bounds(), pf)
		if err != nil {
			t.Fatal(err)
		}
		for join, wantHits := range []int64{0, 1} {
			hits0 := mDictMemoHits.Value()
			ur := &UpdateRect{Rect: fb.Bounds(), Encoding: EncAdaptive}
			body, enc, err := NewWireState(cache, w, h).selectAndEncode(nil, fb, ur, pf, allEncBits, EncRaw, sc)
			if err != nil {
				t.Fatal(err)
			}
			if enc != EncZlibDict {
				t.Fatalf("%d-bit join %d: encoded as %s, want ZlibDict", pf.BitsPerPixel, join, EncodingName(enc))
			}
			if !bytes.Equal(body, fresh) {
				t.Fatalf("%d-bit join %d: body differs from a fresh encode (%d vs %d bytes)", pf.BitsPerPixel, join, len(body), len(fresh))
			}
			if d := mDictMemoHits.Value() - hits0; d != wantHits {
				t.Fatalf("%d-bit join %d: %d memo hits, want %d", pf.BitsPerPixel, join, d, wantHits)
			}
		}
	}

	for _, pf := range []gfx.PixelFormat{gfx.PF32(), gfx.PF16(), gfx.PF8()} {
		s := &ServerConn{pf: pf, encMask: allEncBits}
		for _, h := range bandTestHeights {
			fb := panelFrame(640, h)
			full := []UpdateRect{{Rect: fb.Bounds(), Encoding: EncAdaptive}}
			cache := NewTileCache(0) // the taller frames share bands
			for join := 0; join < 2; join++ {
				hits0 := mDictMemoHits.Value()
				prep, err := s.PrepareUpdateWire(fb, full, NewWireState(cache, 640, h))
				if err != nil {
					t.Fatal(err)
				}
				bands := 0
				for i, ur := range prep.rects {
					if ur.Encoding != EncZlibDict {
						t.Fatalf("%d-bit h=%d join %d: band %v encoded as %s, want ZlibDict", pf.BitsPerPixel, h, join, ur.Rect, EncodingName(ur.Encoding))
					}
					bands++
					fresh, err := EncodeRectInto(nil, EncZlibDict, fb, ur.Rect, pf)
					if err != nil {
						t.Fatal(err)
					}
					if body := prep.buf[prep.spans[i][0]:prep.spans[i][1]]; !bytes.Equal(body, fresh) {
						t.Fatalf("%d-bit h=%d join %d: band %v differs from a fresh encode", pf.BitsPerPixel, h, join, ur.Rect)
					}
				}
				prep.Release()
				if d, want := mDictMemoHits.Value()-hits0, int64(join*bands); d != want {
					t.Fatalf("%d-bit h=%d join %d: %d memo hits, want %d", pf.BitsPerPixel, h, join, d, want)
				}
			}
		}
	}
}

// bandTestHeights are frame heights spanning several bands, a part band
// and less than one band.
var bandTestHeights = []int{480, 240, 100, 40}

// TestDictMemoAnswersOnlyItsChoice: a full-width band asks the memo before
// the probe, so a hit must ship what the probe would have picked. For every
// client choice of raw, RRE and hextile, with either fallback, a session
// whose memo was first filled by every other choice ships exactly what a
// session with an empty memo ships, on GUI content and on a flat frame, and so
// does its second join, which the memo answers.
func TestDictMemoAnswersOnlyItsChoice(t *testing.T) {
	sc := getScratch()
	defer putScratch(sc)
	flat := gfx.NewFramebuffer(640, 64)
	flat.Fill(flat.Bounds(), gfx.RGB(40, 40, 40))
	type choice struct {
		mask     uint8
		fallback int32
	}
	var choices []choice
	for bits := uint8(1); bits < 8; bits++ { // non-empty subsets of raw, RRE, hextile
		for _, fb := range []int32{EncRaw, EncHextile} {
			choices = append(choices, choice{bits | encBitZlibDict, fb})
		}
	}
	hits0 := mDictMemoHits.Value()
	for _, fb := range []*gfx.Framebuffer{panelFrame(640, 64), flat} {
		ship := func(cache *TileCache, c choice) ([]byte, int32) {
			ur := &UpdateRect{Rect: fb.Bounds(), Encoding: EncAdaptive}
			body, enc, err := NewWireState(cache, 640, 64).selectAndEncode(nil, fb, ur, gfx.PF32(), c.mask, c.fallback, sc)
			if err != nil {
				t.Fatal(err)
			}
			return body, enc
		}
		for i, c := range choices {
			cache := NewTileCache(0)
			for j, other := range choices {
				if j != i {
					ship(cache, other)
				}
			}
			want, wantEnc := ship(NewTileCache(0), c)
			for join := 0; join < 2; join++ { // the second join can hit its own body
				got, enc := ship(cache, c)
				if enc != wantEnc || !bytes.Equal(got, want) {
					t.Fatalf("mask %08b fallback %s join %d: memo session shipped %s (%d B), probe alone %s (%d B)",
						c.mask, EncodingName(c.fallback), join, EncodingName(enc), len(got), EncodingName(wantEnc), len(want))
				}
			}
		}
	}
	if mDictMemoHits.Value() == hits0 {
		t.Fatal("no session took a memoised body")
	}
}

// TestBandedRepaintDecodesToFrame: under every pixel format and frame
// height, a client decoding a banded full repaint holds exactly the
// server's frame, received as ⌈H/bandRows⌉ rectangles.
func TestBandedRepaintDecodesToFrame(t *testing.T) {
	const w = 640
	encs := []int32{EncZlibDict, EncTileInstall, EncTileRef, EncCopyRect, EncHextile, EncRRE, EncZlib, EncRaw}
	cache := NewTileCache(0)
	for _, h := range bandTestHeights {
		server, client, sh, ch := pipePair(t, w, h)
		fb := panelFrame(w, h)
		// Rows of distinct colours send the first band down the raw path.
		for y := 16; y < 40; y++ {
			for x := 0; x < w; x++ {
				fb.Set(x, y, gfx.RGB(uint8(x), uint8(y), uint8(x>>8)))
			}
		}
		if err := client.SetEncodings(encs); err != nil {
			t.Fatal(err)
		}
		for _, pf := range []gfx.PixelFormat{gfx.PF32(), gfx.PF16(), gfx.PF8()} {
			if err := client.SetPixelFormat(pf); err != nil {
				t.Fatal(err)
			}
			if err := client.RequestUpdate(false, fb.Bounds()); err != nil {
				t.Fatal(err)
			}
			waitSig(t, sh.gotReq, "request")
			prep, err := server.PrepareUpdateWire(fb, []UpdateRect{{Rect: fb.Bounds(), Encoding: EncAdaptive}}, NewWireState(cache, w, h))
			if err != nil {
				t.Fatal(err)
			}
			if err := server.SendPrepared(prep); err != nil {
				t.Fatal(err)
			}
			waitSig(t, ch.gotUpd, "update")
			ch.mu.Lock()
			got := len(ch.updates[len(ch.updates)-1])
			ch.mu.Unlock()
			if want := (h + bandRows - 1) / bandRows; got != want {
				t.Fatalf("%d-bit h=%d: %d rectangles, want %d", pf.BitsPerPixel, h, got, want)
			}
			if !client.Snapshot(fb.Bounds()).Equal(quantize(fb, pf)) {
				t.Fatalf("%d-bit h=%d: the client's frame differs from the server's", pf.BitsPerPixel, h)
			}
		}
	}
}

// TestBandedRepaintKeepsSwitchContract: the bands of a full repaint commit
// as the one full-bounds rectangle they cover, so a repaint of the
// unchanged frame, a device switch's, still prepares one 4-byte
// self-copy. A pixel write or a Reset ships bands again. A client that
// does not decode dictionary zlib gets one rectangle.
func TestBandedRepaintKeepsSwitchContract(t *testing.T) {
	const w, h = 640, 480
	fb := panelFrame(w, h)
	s := &ServerConn{pf: gfx.PF32(), encMask: allEncBits}
	full := []UpdateRect{{Rect: fb.Bounds(), Encoding: EncAdaptive}}
	prepare := func(ws *WireState) (rects []UpdateRect, body int) {
		t.Helper()
		prep, err := s.PrepareUpdateWire(fb, full, ws)
		if err != nil {
			t.Fatal(err)
		}
		defer prep.Release()
		return append([]UpdateRect(nil), prep.rects...), len(prep.buf)
	}
	ws := NewWireState(NewTileCache(0), w, h)
	for _, step := range []struct {
		name  string
		write func()
	}{
		{"first paint", func() {}},
		{"pixel write", func() { fb.Set(5, 5, gfx.Red) }},
		{"Reset", ws.Reset},
	} {
		step.write()
		if rects, _ := prepare(ws); len(rects) != (h+bandRows-1)/bandRows {
			t.Fatalf("%s: %d rectangles, want %d bands", step.name, len(rects), (h+bandRows-1)/bandRows)
		}
		rects, body := prepare(ws)
		if len(rects) != 1 || rects[0].Encoding != EncCopyRect || body != 4 ||
			rects[0].CopySrcX != 0 || rects[0].CopySrcY != 0 {
			t.Fatalf("%s, then the unchanged frame: %d rectangles (first %s, %d body bytes), want one 4-byte self-copy",
				step.name, len(rects), EncodingName(rects[0].Encoding), body)
		}
	}
	s.encMask = allEncBits &^ encBitZlibDict
	if rects, _ := prepare(NewWireState(NewTileCache(0), w, h)); len(rects) != 1 {
		t.Fatalf("a client without dictionary zlib got %d rectangles, want 1", len(rects))
	}
}

// TestPrepareRefusesUncountableUpdate: a FramebufferUpdate counts its
// rectangles in a u16, so preparing more than 65 535 is an error, not a
// count that wraps into a corrupt stream, and the wire model that
// committed them is distrusted.
func TestPrepareRefusesUncountableUpdate(t *testing.T) {
	const w, h = 64, 64
	fb := panelFrame(w, h)
	s := &ServerConn{pf: gfx.PF32(), encMask: allEncBits}
	ws := NewWireState(NewTileCache(0), w, h)
	rects := make([]UpdateRect, 1<<16)
	for i := range rects {
		r := gfx.R(i%w, 0, 1, 1)
		rects[i] = UpdateRect{Rect: r, Encoding: EncCopyRect, CopySrcX: r.X, CopySrcY: r.Y}
	}
	sync := func() {
		t.Helper()
		prep, err := s.PrepareUpdateWire(fb, []UpdateRect{{Rect: fb.Bounds(), Encoding: EncRaw}}, ws)
		if err != nil {
			t.Fatal(err)
		}
		prep.Release()
	}

	sync()
	prep, err := s.PrepareUpdateWire(fb, rects[:len(rects)-1], ws)
	if err != nil {
		t.Fatalf("65 535 rectangles: %v", err)
	}
	prep.Release()
	if ws.synced != fb {
		t.Fatal("65 535 self-copies unsynced the model")
	}
	prep, err = s.PrepareUpdateWire(fb, rects, ws)
	if err == nil {
		t.Fatalf("65 536 rectangles prepared (%d bytes); the u16 count would wrap", prep.Size())
	}
	if ws.synced != nil {
		t.Fatal("the model still trusts a client that was sent nothing")
	}
}

// TestDictMemoAndTileInstallKeepSeparateKeys: tile-sized content memoised
// as a dictionary-zlib body for a client without tile support must not
// answer a tile install for a client with it — the install's inner body
// stays one every tile-capable client decodes.
func TestDictMemoAndTileInstallKeepSeparateKeys(t *testing.T) {
	const w, h = 128, 64 // within tile bounds, above the dictionary threshold
	pf := gfx.PF32()
	fb := panelFrame(w, h)
	cache := NewTileCache(0)
	sc := getScratch()
	defer putScratch(sc)

	encode := func(mask uint8) ([]byte, int32) {
		ur := &UpdateRect{Rect: fb.Bounds(), Encoding: EncAdaptive}
		body, enc, err := NewWireState(cache, w, h).selectAndEncode(nil, fb, ur, pf, mask, EncRaw, sc)
		if err != nil {
			t.Fatal(err)
		}
		return body, enc
	}
	if _, enc := encode(allEncBits &^ (encBitTileRef | encBitTileInstall)); enc != EncZlibDict {
		t.Fatalf("tileless client: encoded as %s, want ZlibDict", EncodingName(enc))
	}
	body, enc := encode(allEncBits)
	if enc != EncTileInstall {
		t.Fatalf("tile client: encoded as %s, want TileInstall", EncodingName(enc))
	}
	switch inner := int32(be.Uint32(body[8:12])); inner {
	case EncRaw, EncRRE, EncHextile:
	default:
		t.Fatalf("tile install carries a %s inner body", EncodingName(inner))
	}
	got := gfx.NewFramebuffer(w, h)
	if err := decodeRect(bytes.NewReader(body), EncTileInstall, got, fb.Bounds(), pf, &decodeScratch{}); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(fb) {
		t.Fatal("tile install decoded to different pixels")
	}
}

// TestUnchangedFrameSelfCopiesByGeneration: once a full-bounds rectangle
// has shipped, a repaint of a frame nobody wrote since is a self-copy
// answered from the frame's generation, reading no pixels. The next write
// ends that, even one that changes no pixel, until a full repaint ships.
func TestUnchangedFrameSelfCopiesByGeneration(t *testing.T) {
	const w, h = 96, 64
	pf := gfx.PF32()
	fb := gradientFrame(w, h)
	ws := NewWireState(NewTileCache(0), w, h)
	sc := getScratch()
	defer putScratch(sc)
	full := fb.Bounds()
	prepare := func(r gfx.Rect) (enc int32, byGen bool) {
		t.Helper()
		n0 := mCopyUnchanged.Value()
		ur := &UpdateRect{Rect: r, Encoding: EncAdaptive}
		_, enc, err := ws.selectAndEncode(nil, fb, ur, pf, allEncBits, EncRaw, sc)
		if err != nil {
			t.Fatal(err)
		}
		if enc == EncCopyRect && (ur.CopySrcX != r.X || ur.CopySrcY != r.Y) {
			t.Fatalf("%v: displaced copy from (%d,%d)", r, ur.CopySrcX, ur.CopySrcY)
		}
		ur.Encoding = enc
		ws.commit(fb, ur)
		return enc, mCopyUnchanged.Value() != n0
	}

	if enc, _ := prepare(full); enc == EncCopyRect {
		t.Fatal("first paint self-copied over a black client")
	}
	// Flip a pixel behind the generation's back: a self-copy now can only
	// mean the answer came from the generation, not from the pixels.
	fb.Pix()[0] ^= 0xFFFFFF
	for _, r := range []gfx.Rect{full, gfx.R(0, 0, 64, 32)} {
		if enc, byGen := prepare(r); enc != EncCopyRect || !byGen {
			t.Fatalf("%v on an unwritten frame: %s (by generation: %v), want a self-copy by generation", r, EncodingName(enc), byGen)
		}
	}
	fb.Pix()[0] ^= 0xFFFFFF

	fb.Set(5, 5, gfx.Red)
	if enc, _ := prepare(full); enc == EncCopyRect {
		t.Fatal("a changed frame self-copied")
	}
	if enc, byGen := prepare(full); enc != EncCopyRect || !byGen {
		t.Fatalf("after the full repaint: %s (by generation: %v), want a self-copy by generation", EncodingName(enc), byGen)
	}

	fb.Set(5, 5, gfx.Red) // a write that changes nothing
	if enc, _ := prepare(full); enc == EncCopyRect {
		t.Fatal("a rewritten frame self-copied")
	}
	if _, byGen := prepare(full); !byGen {
		t.Fatal("the full repaint of a rewritten frame did not restore the shortcut")
	}

	// Part of another frame lands on the client: it no longer holds fb
	// there, though fb has not been written.
	other := gradientFrame(w, h)
	other.Fill(gfx.R(0, 0, 40, 40), gfx.Blue)
	ws.commit(other, &UpdateRect{Rect: gfx.R(0, 0, 40, 40), Encoding: EncRaw})
	if enc, _ := prepare(full); enc == EncCopyRect {
		t.Fatal("self-copied a frame the client no longer holds")
	}
	// So does a caller's displaced copy, which moves client pixels while
	// fb's generation stands still.
	ws.commit(fb, &UpdateRect{Rect: gfx.R(0, 0, 40, 40), Encoding: EncCopyRect, CopySrcX: 8})
	if enc, _ := prepare(full); enc == EncCopyRect {
		t.Fatal("self-copied after a displaced copy moved the client's pixels")
	}

	ws.Reset()
	if enc, _ := prepare(full); enc == EncCopyRect {
		t.Fatal("CopyRect chosen against a model synced to no frame")
	}
}

// TestGenerationShortcutMatchesCompare: over random paint, scroll, text,
// device-switch and Reset sequences, every self-copy the generation
// shortcut answers is right — a client decoding the stream holds exactly
// the frame after every flush.
func TestGenerationShortcutMatchesCompare(t *testing.T) {
	const w, h = 80, 64
	// Two lossless formats, so a switch changes the format (and drops the
	// tile window) while the client's pixels stay comparable with fb's.
	bgr := gfx.PF32()
	bgr.RedShift, bgr.BlueShift = bgr.BlueShift, bgr.RedShift
	formats := []gfx.PixelFormat{gfx.PF32(), bgr}
	palette := []gfx.Color{gfx.Black, gfx.White, gfx.Gray, gfx.Blue}
	sc := getScratch()
	defer putScratch(sc)
	copies := 0
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randRect := func(minW, minH int) gfx.Rect {
			rw, rh := minW+rng.Intn(w-minW+1), minH+rng.Intn(h-minH+1)
			return gfx.R(rng.Intn(w-rw+1), rng.Intn(h-rh+1), rw, rh)
		}
		fb := randomFrame(rng, w, h)
		ws := NewWireState(NewTileCache(0), w, h)
		client := gfx.NewFramebuffer(w, h)
		dsc := &decodeScratch{}
		pf := formats[0]
		var damage []gfx.Rect
		ship := func(step int, rects []gfx.Rect) {
			for _, r := range rects {
				ur := &UpdateRect{Rect: r, Encoding: EncAdaptive}
				body, enc, err := ws.selectAndEncode(nil, fb, ur, pf, allEncBits, EncRaw, sc)
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				ur.Encoding = enc
				ws.commit(fb, ur)
				if enc == EncCopyRect {
					copies++
					client.CopyRect(r.X, r.Y, gfx.R(ur.CopySrcX, ur.CopySrcY, r.W, r.H))
				} else if err := decodeRect(bytes.NewReader(body), enc, client, r, pf, dsc); err != nil {
					t.Fatalf("seed %d step %d: decode %s: %v", seed, step, EncodingName(enc), err)
				}
			}
		}
		ship(-1, []gfx.Rect{fb.Bounds()})
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(8); op {
			case 0, 1: // a widget repaint, possibly to the colour it had
				r := randRect(1, 1)
				fb.Fill(r, palette[rng.Intn(len(palette))])
				damage = append(damage, r)
			case 2: // content moving a few pixels
				r := randRect(8, 8)
				dx, dy := rng.Intn(9)-4, rng.Intn(9)-4
				fb.CopyRect(r.X+dx, r.Y+dy, r)
				damage = append(damage, gfx.R(r.X+dx, r.Y+dy, r.W, r.H).Intersect(fb.Bounds()))
			case 3: // a label
				x, y := rng.Intn(w-8), rng.Intn(h-8)
				gfx.DrawText(fb, x, y, "ok", palette[rng.Intn(len(palette))])
				damage = append(damage, gfx.R(x, y, 2*gfx.GlyphW, gfx.GlyphH).Intersect(fb.Bounds()))
			case 4: // a device switch: a new format and a full repaint
				pf = formats[rng.Intn(len(formats))]
				ship(step, []gfx.Rect{fb.Bounds()})
				damage = damage[:0]
			case 5: // a flush of the accumulated damage
				ship(step, damage)
				damage = damage[:0]
			case 6: // an over-wide repaint of whatever is there
				ship(step, []gfx.Rect{randRect(32, 32)})
			case 7:
				if rng.Intn(4) == 0 { // the client's state became unknown
					ws.Reset()
				}
			}
			if len(damage) == 0 && !client.Equal(fb) {
				t.Fatalf("seed %d step %d: client differs from the frame in %v", seed, step, client.DiffRect(fb))
			}
		}
	}
	if copies == 0 {
		t.Fatal("no rectangle shipped as a self-copy: the shortcut went untested")
	}
}
