package rfb

import (
	"testing"

	"uniint/internal/gfx"
)

// syncedTo returns a w×h wire model synced, through a full-bounds commit,
// to a frame filled with a deterministic pseudo-random pattern (xorshift)
// that includes values with the unused top byte set, so a round-trip must
// be byte-lossless, not merely 24-bit-lossless. It returns the frame too.
func syncedTo(w, h int, seed uint32) (*WireState, *gfx.Framebuffer) {
	fb := gfx.NewFramebuffer(w, h)
	x := seed | 1
	pix := fb.Pix()
	for i := range pix {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		pix[i] = gfx.Color(x)
	}
	ws := NewWireState(NewTileCache(0), w, h)
	ws.commit(fb, &UpdateRect{Rect: fb.Bounds(), Encoding: EncRaw})
	return ws, fb
}

// TestPackNeedsASyncedFrame: a model synced to no frame — fresh, Reset, or
// left by a partial blit of another frame — has nothing to pack.
func TestPackNeedsASyncedFrame(t *testing.T) {
	ws, _ := syncedTo(32, 32, 3)
	ws.Reset()
	if _, err := ws.Pack(); err == nil {
		t.Fatal("a Reset model packed")
	}
	if _, err := NewWireState(NewTileCache(0), 32, 32).Pack(); err == nil {
		t.Fatal("a fresh model packed")
	}
	ws, _ = syncedTo(32, 32, 3)
	ws.commit(gfx.NewFramebuffer(32, 32), &UpdateRect{Rect: gfx.R(0, 0, 8, 8), Encoding: EncRaw})
	if _, err := ws.Pack(); err == nil {
		t.Fatal("a model holding part of another frame packed")
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	cases := []struct {
		name     string
		pf       gfx.PixelFormat
		pfSet    bool
		wantDict bool
	}{
		{"unset-pf", gfx.PixelFormat{}, false, true},
		{"pf32", gfx.PF32(), true, true},
		{"pf16", gfx.PF16(), true, false},
		{"pf8", gfx.PF8(), true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ws, fb := syncedTo(64, 48, 0xDECAF)
			ws.pf, ws.pfSet = tc.pf, tc.pfSet

			p, err := ws.Pack()
			if err != nil {
				t.Fatal(err)
			}
			if dict := p.comp[1]&0x20 != 0; dict != tc.wantDict { // zlib's FDICT flag
				t.Errorf("dict = %v, want %v", dict, tc.wantDict)
			}
			if p.RawBytes() != 64*48*4 {
				t.Errorf("RawBytes = %d", p.RawBytes())
			}

			got, err := p.Unpack(nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range got.Pix() {
				if c != fb.Pix()[i] {
					t.Fatalf("pixel %d: %08x, want %08x", i, uint32(c), uint32(fb.Pix()[i]))
				}
			}
		})
	}
}

func TestPackCompressionRatio(t *testing.T) {
	// GUI-like content — theme fills plus glyph-row text — must shrink at
	// least 3x; this is the acceptance floor for cold parked sessions.
	fb := gfx.NewFramebuffer(160, 120)
	fb.Clear(gfx.LightGray)
	for y := 20; y < 27; y++ { // a band of text-ish alternation
		for x := 0; x < 160; x += 3 {
			fb.Set(x, y, gfx.Black)
		}
	}
	ws := NewWireState(NewTileCache(0), 160, 120)
	ws.commit(fb, &UpdateRect{Rect: fb.Bounds(), Encoding: EncRaw})
	p, err := ws.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if p.CompressedBytes()*3 > p.RawBytes() {
		t.Fatalf("compressed %d bytes of %d raw: under 3x", p.CompressedBytes(), p.RawBytes())
	}
}

func TestUnpackRejectsCorruptStream(t *testing.T) {
	ws, _ := syncedTo(32, 32, 7)
	p, err := ws.Pack()
	if err != nil {
		t.Fatal(err)
	}
	trunc := &PackedShadow{w: p.w, h: p.h, comp: p.comp[:len(p.comp)/2]}
	if _, err := trunc.Unpack(nil); err == nil {
		t.Fatal("truncated stream unpacked cleanly")
	}
	// A geometry lie (more pixels in the stream than the header claims)
	// must be caught, not silently dropped.
	lying := &PackedShadow{w: 16, h: 16, comp: p.comp}
	if _, err := lying.Unpack(nil); err == nil {
		t.Fatal("oversized stream unpacked cleanly")
	}
	flipped := &PackedShadow{w: p.w, h: p.h, comp: append([]byte(nil), p.comp...)}
	flipped.comp[len(flipped.comp)/2] ^= 0x55
	if _, err := flipped.Unpack(nil); err == nil {
		t.Fatal("corrupted stream unpacked cleanly")
	}
}
