package rfb

import (
	"testing"

	"uniint/internal/gfx"
)

// fillShadow writes a deterministic pseudo-random pattern (xorshift) into
// every shadow pixel, including values with the unused top byte set, so a
// round-trip must be byte-lossless, not merely 24-bit-lossless.
func fillShadow(ws *WireState, seed uint32) {
	x := seed | 1
	pix := ws.ensureShadow().Pix()
	for i := range pix {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		pix[i] = gfx.Color(x)
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
			ws := NewWireState(nil, 64, 48)
			fillShadow(ws, 0xDECAF)
			ws.pf, ws.pfSet = tc.pf, tc.pfSet
			want := append([]gfx.Color(nil), ws.shadow.Pix()...)

			p, err := ws.Pack()
			if err != nil {
				t.Fatal(err)
			}
			if p.dict != tc.wantDict {
				t.Errorf("dict = %v, want %v", p.dict, tc.wantDict)
			}
			if p.RawBytes() != 64*48*4 {
				t.Errorf("RawBytes = %d", p.RawBytes())
			}

			got, err := p.Unpack(nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range got.shadow.Pix() {
				if c != want[i] {
					t.Fatalf("pixel %d: %08x, want %08x", i, uint32(c), uint32(want[i]))
				}
			}
			if got.valid {
				t.Error("unpacked shadow claims validity")
			}
			if got.pf != tc.pf || got.pfSet != tc.pfSet {
				t.Errorf("pf round-trip: %+v set=%v", got.pf, got.pfSet)
			}
		})
	}
}

func TestPackCompressionRatio(t *testing.T) {
	// GUI-like content — theme fills plus glyph-row text — must shrink at
	// least 3x; this is the acceptance floor for cold parked sessions.
	ws := NewWireState(nil, 160, 120)
	pix := ws.ensureShadow().Pix()
	for i := range pix {
		pix[i] = gfx.LightGray
	}
	for y := 20; y < 27; y++ { // a band of text-ish alternation
		for x := 0; x < 160; x++ {
			if x%3 == 0 {
				pix[y*160+x] = gfx.Black
			}
		}
	}
	p, err := ws.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if p.CompressedBytes()*3 > p.RawBytes() {
		t.Fatalf("compressed %d bytes of %d raw: under 3x", p.CompressedBytes(), p.RawBytes())
	}
}

func TestUnpackRejectsCorruptStream(t *testing.T) {
	ws := NewWireState(nil, 32, 32)
	fillShadow(ws, 7)
	p, err := ws.Pack()
	if err != nil {
		t.Fatal(err)
	}
	trunc := &PackedShadow{w: p.w, h: p.h, dict: p.dict, comp: p.comp[:len(p.comp)/2], raw: p.raw}
	if _, err := trunc.Unpack(nil); err == nil {
		t.Fatal("truncated stream unpacked cleanly")
	}
	// A geometry lie (more pixels in the stream than the header claims)
	// must be caught, not silently dropped.
	lying := &PackedShadow{w: 16, h: 16, dict: p.dict, comp: p.comp, raw: 16 * 16 * 4}
	if _, err := lying.Unpack(nil); err == nil {
		t.Fatal("oversized stream unpacked cleanly")
	}
}
