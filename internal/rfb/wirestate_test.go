package rfb

import (
	"bytes"
	"math/rand"
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
	ws := NewWireState(nil, w, h)
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
		tc.Put(tileKey{hash: uint64(i) + 1e6, pf: pf}, EncRaw, filler)
	}
	if got := tc.Bytes(); got > 1<<10 {
		t.Fatalf("cache holds %d bytes, budget is %d", got, 1<<10)
	}
	if _, _, ok := tc.Get(tileKey{hash: hashTile(fb, r), pf: pf, kind: EncTileInstall}); ok {
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
// the server's hash window and the client's pixel memory, past eviction
// churn several times the window capacity. The protocol invariant under
// test: every hash the server window still holds (every EncTileRef it
// would emit) is replayable from the client memory.
func TestTileWindowClientLockstep(t *testing.T) {
	const w, h = 16, 16
	fb := gradientFrame(w, h)
	r := gfx.R(0, 0, 8, 8)

	var win tileWindow
	win.init()
	var ct clientTiles

	rng := rand.New(rand.NewSource(11))
	hashes := make([]uint64, 3*tileWindowCap)
	for i := range hashes {
		hashes[i] = uint64(i) + 7
	}
	refs := 0
	for i := 0; i < 8*tileWindowCap; i++ {
		hh := hashes[rng.Intn(len(hashes))]
		if win.touch(hh) {
			refs++
			if !ct.replay(hh, fb, r) {
				t.Fatalf("op %d: server window holds %x but client memory does not", i, hh)
			}
		} else {
			win.install(hh)
			ct.install(hh, fb, r)
		}
	}
	if refs == 0 {
		t.Fatal("stream produced no refs — the test exercised nothing")
	}
	if len(ct.entries) > tileWindowCap {
		t.Fatalf("client memory grew to %d entries, cap is %d", len(ct.entries), tileWindowCap)
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
			if err := decodeRect(bytes.NewReader(raw), EncRaw, want, r, pf, nil); err != nil {
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
			ws := NewWireState(nil, w, h)
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
			be.PutUint64(ref, hashTile(frame, r))
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
// is byte-identical to a fresh encodeZlibDict of the frame.
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
	ws := NewWireState(nil, w, h)
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
		ws := NewWireState(nil, w, h)
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
