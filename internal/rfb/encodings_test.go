package rfb

import (
	"bytes"
	"math/rand"
	"testing"

	"uniint/internal/gfx"
)

// makeGUIFrame paints a control-panel-like image: flat panels, borders and
// text — the content class the protocol actually carries.
func makeGUIFrame(w, h int) *gfx.Framebuffer {
	f := gfx.NewFramebuffer(w, h)
	f.Clear(gfx.LightGray)
	f.Fill(gfx.R(0, 0, w, 18), gfx.Navy)
	gfx.DrawText(f, 4, 5, "TV + VCR Control Panel", gfx.White)
	for i := 0; i < 4; i++ {
		r := gfx.R(8+i*(w/4), 30, w/4-16, 24)
		f.Fill(r, gfx.Gray)
		f.Bevel(r, false)
		gfx.DrawText(f, r.X+4, r.Y+8, "Btn", gfx.Black)
	}
	f.Fill(gfx.R(10, 70, w-20, 12), gfx.White)
	f.Fill(gfx.R(10, 70, (w-20)/3, 12), gfx.Blue)
	return f
}

// makeNoiseFrame paints uncompressible noise — worst case for RRE/Hextile.
func makeNoiseFrame(w, h int, seed int64) *gfx.Framebuffer {
	rng := rand.New(rand.NewSource(seed))
	f := gfx.NewFramebuffer(w, h)
	for i := range f.Pix() {
		f.Pix()[i] = gfx.Color(rng.Uint32() & 0xFFFFFF)
	}
	return f
}

func frameClasses() map[string]*gfx.Framebuffer {
	return map[string]*gfx.Framebuffer{
		"gui":   makeGUIFrame(160, 120),
		"noise": makeNoiseFrame(160, 120, 42),
		"flat": func() *gfx.Framebuffer {
			f := gfx.NewFramebuffer(160, 120)
			f.Clear(gfx.Blue)
			return f
		}(),
	}
}

func pixelFormats() map[string]gfx.PixelFormat {
	return map[string]gfx.PixelFormat{
		"pf32": gfx.PF32(),
		"pf16": gfx.PF16(),
		"pf8":  gfx.PF8(),
	}
}

// quantize maps a frame through a pixel format the way the wire does, so
// round-trip comparisons are exact.
func quantize(f *gfx.Framebuffer, pf gfx.PixelFormat) *gfx.Framebuffer {
	q := gfx.NewFramebuffer(f.W(), f.H())
	for i, c := range f.Pix() {
		q.Pix()[i] = pf.Decode(pf.Encode(c))
	}
	return q
}

func TestEncodingRoundTrip(t *testing.T) {
	encodings := []int32{EncRaw, EncRRE, EncHextile, EncZlib}
	rects := []gfx.Rect{
		gfx.R(0, 0, 160, 120),   // full frame
		gfx.R(7, 9, 100, 50),    // interior, odd offsets
		gfx.R(0, 0, 16, 16),     // exactly one hextile tile
		gfx.R(3, 3, 17, 17),     // crosses tile boundaries
		gfx.R(150, 110, 10, 10), // bottom-right corner
		gfx.R(5, 5, 1, 1),       // single pixel
	}
	for fname, frame := range frameClasses() {
		for pfname, pf := range pixelFormats() {
			want := quantize(frame, pf)
			for _, enc := range encodings {
				for _, r := range rects {
					body, err := EncodeRectInto(nil, enc, frame, r, pf)
					if err != nil {
						t.Fatalf("%s/%s/%s: encode: %v", fname, pfname, EncodingName(enc), err)
					}
					dst := gfx.NewFramebuffer(frame.W(), frame.H())
					if err := decodeRect(bytes.NewReader(body), enc, dst, r, pf, &decodeScratch{}); err != nil {
						t.Fatalf("%s/%s/%s %v: decode: %v", fname, pfname, EncodingName(enc), r, err)
					}
					for y := r.Y; y < r.MaxY(); y++ {
						for x := r.X; x < r.MaxX(); x++ {
							if dst.At(x, y) != want.At(x, y) {
								t.Fatalf("%s/%s/%s %v: pixel (%d,%d) = %06x, want %06x",
									fname, pfname, EncodingName(enc), r,
									x, y, dst.At(x, y), want.At(x, y))
							}
						}
					}
				}
			}
		}
	}
}

func TestEncodingDoesNotTouchOutside(t *testing.T) {
	frame := makeGUIFrame(64, 64)
	r := gfx.R(16, 16, 20, 20)
	for _, enc := range []int32{EncRaw, EncRRE, EncHextile, EncZlib} {
		body, err := EncodeRectInto(nil, enc, frame, r, gfx.PF32())
		if err != nil {
			t.Fatal(err)
		}
		dst := gfx.NewFramebuffer(64, 64)
		dst.Clear(gfx.Red)
		if err := decodeRect(bytes.NewReader(body), enc, dst, r, gfx.PF32(), &decodeScratch{}); err != nil {
			t.Fatal(err)
		}
		for y := 0; y < 64; y++ {
			for x := 0; x < 64; x++ {
				if !r.Contains(x, y) && dst.At(x, y) != gfx.Red {
					t.Fatalf("%s painted outside rect at (%d,%d)", EncodingName(enc), x, y)
				}
			}
		}
	}
}

func TestCompactEncodingsBeatRawOnGUI(t *testing.T) {
	frame := makeGUIFrame(320, 240)
	r := frame.Bounds()
	pf := gfx.PF32()
	raw, err := EncodeRectInto(nil, EncRaw, frame, r, pf)
	if err != nil {
		t.Fatal(err)
	}
	for _, enc := range []int32{EncRRE, EncHextile, EncZlib} {
		body, err := EncodeRectInto(nil, enc, frame, r, pf)
		if err != nil {
			t.Fatal(err)
		}
		if len(body) >= len(raw) {
			t.Errorf("%s (%d bytes) should beat raw (%d bytes) on GUI content",
				EncodingName(enc), len(body), len(raw))
		}
	}
}

func TestHextileNeverBlowsUpOnNoise(t *testing.T) {
	// On noise, hextile must fall back to raw tiles and stay within a
	// small overhead of raw (1 mask byte per 16x16 tile).
	frame := makeNoiseFrame(160, 128, 7)
	pf := gfx.PF32()
	r := frame.Bounds()
	raw, _ := EncodeRectInto(nil, EncRaw, frame, r, pf)
	hex, err := EncodeRectInto(nil, EncHextile, frame, r, pf)
	if err != nil {
		t.Fatal(err)
	}
	tiles := ((r.W + 15) / 16) * ((r.H + 15) / 16)
	if len(hex) > len(raw)+tiles {
		t.Errorf("hextile on noise = %d bytes, raw = %d (+%d tiles allowed)",
			len(hex), len(raw), tiles)
	}
}

func TestDecodeRREBadCount(t *testing.T) {
	// A subrect count far beyond the rect area must be rejected.
	buf := bytes.NewReader(be.AppendUint32(nil, 1<<30))
	dst := gfx.NewFramebuffer(8, 8)
	err := decodeRect(buf, EncRRE, dst, gfx.R(0, 0, 8, 8), gfx.PF32(), &decodeScratch{})
	if err == nil {
		t.Fatal("expected error on absurd RRE subrect count")
	}
}

func TestUnknownEncoding(t *testing.T) {
	if _, err := EncodeRectInto(nil, 999, gfx.NewFramebuffer(4, 4), gfx.R(0, 0, 4, 4), gfx.PF32()); err == nil {
		t.Error("encode with unknown encoding should fail")
	}
	if err := decodeRect(bytes.NewReader(nil), 999, gfx.NewFramebuffer(4, 4), gfx.R(0, 0, 4, 4), gfx.PF32(), &decodeScratch{}); err == nil {
		t.Error("decode with unknown encoding should fail")
	}
}

func BenchmarkEncode(b *testing.B) {
	frames := map[string]*gfx.Framebuffer{
		"gui":   makeGUIFrame(640, 480),
		"noise": makeNoiseFrame(640, 480, 3),
	}
	for fname, frame := range frames {
		for _, enc := range []int32{EncRaw, EncRRE, EncHextile, EncZlib} {
			b.Run(fname+"/"+EncodingName(enc), func(b *testing.B) {
				pf := gfx.PF32()
				r := frame.Bounds()
				var body []byte
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var err error
					body, err = EncodeRectInto(body[:0], enc, frame, r, pf)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(body)), "bytes/frame")
			})
		}
	}
}

// TestRawPF32RowPathMatchesGeneric: under exactly gfx.PF32() encodeRaw and
// decodeRaw move whole rows; the bytes and the painted pixels must equal
// the per-pixel path's, which a format with the same wire pixels but a
// different (unused) Depth still takes.
func TestRawPF32RowPathMatchesGeneric(t *testing.T) {
	generic := gfx.PF32()
	generic.Depth = 32
	if generic == gfx.PF32() {
		t.Fatal("the reference format must not select the row path")
	}
	frame := makeNoiseFrame(160, 120, 7)
	for i := range frame.Pix() {
		if i%3 == 0 {
			frame.Pix()[i] |= 0xAB000000 // bits above the 24 a Color means
		}
	}
	inside := []gfx.Rect{
		gfx.R(5, 5, 1, 1),       // single pixel
		gfx.R(7, 9, 101, 53),    // odd offsets, odd size
		gfx.R(0, 0, 160, 120),   // full frame
		gfx.R(150, 110, 10, 10), // bottom-right corner
	}
	for _, r := range inside {
		rows := encodeRaw(nil, frame, r, gfx.PF32())
		if ref := encodeRaw(nil, frame, r, generic); !bytes.Equal(rows, ref) {
			t.Fatalf("encodeRaw %v: row path differs from the per-pixel path", r)
		}
	}
	// Decode: the same rects, plus rects the framebuffer clips — rows and
	// columns outside it are consumed and not written, as Framebuffer.Set
	// has it.
	clipped := append(inside,
		gfx.R(150, 110, 20, 20), // runs off the right and bottom edges
		gfx.R(-3, -2, 10, 10),   // runs off the left and top edges
		gfx.R(200, 10, 5, 5),    // wholly outside
	)
	rng := rand.New(rand.NewSource(11))
	for _, r := range clipped {
		body := make([]byte, r.W*r.H*4)
		rng.Read(body)
		got, want := frame.Clone(), frame.Clone()
		if err := decodeRaw(bytes.NewReader(body), got, r, gfx.PF32(), &decodeScratch{}); err != nil {
			t.Fatalf("decodeRaw %v: %v", r, err)
		}
		if err := decodeRaw(bytes.NewReader(body), want, r, generic, &decodeScratch{}); err != nil {
			t.Fatalf("decodeRaw %v (per-pixel): %v", r, err)
		}
		if !got.Equal(want) {
			t.Fatalf("decodeRaw %v: row path painted different pixels than the per-pixel path", r)
		}
	}
}
