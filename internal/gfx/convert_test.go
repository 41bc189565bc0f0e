package gfx

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func gradient(w, h int) *Framebuffer {
	f := NewFramebuffer(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			f.Set(x, y, RGB(uint8(x*255/max(w-1, 1)), uint8(y*255/max(h-1, 1)), 128))
		}
	}
	return f
}

func TestColorComponents(t *testing.T) {
	c := RGB(0x12, 0x34, 0x56)
	if c.R() != 0x12 || c.G() != 0x34 || c.B() != 0x56 {
		t.Errorf("components = %x %x %x", c.R(), c.G(), c.B())
	}
}

func TestGrayWeights(t *testing.T) {
	if White.Gray() != 255 {
		t.Errorf("white gray = %d", White.Gray())
	}
	if Black.Gray() != 0 {
		t.Errorf("black gray = %d", Black.Gray())
	}
	// Green contributes most.
	if RGB(0, 255, 0).Gray() <= RGB(255, 0, 0).Gray() {
		t.Error("green should be brighter than red")
	}
	if RGB(255, 0, 0).Gray() <= RGB(0, 0, 255).Gray() {
		t.Error("red should be brighter than blue")
	}
}

func TestPixelFormatRoundTrip(t *testing.T) {
	formats := map[string]PixelFormat{"pf32": PF32(), "pf16": PF16(), "pf8": PF8()}
	for name, pf := range formats {
		t.Run(name, func(t *testing.T) {
			if !pf.Valid() {
				t.Fatal("format should be valid")
			}
			// Black and white survive any true-color format exactly.
			for _, c := range []Color{Black, White} {
				got := pf.Decode(pf.Encode(c))
				if got != c {
					t.Errorf("round trip %v = %v", c, got)
				}
			}
		})
	}
}

func TestPixelFormatRoundTripLoss(t *testing.T) {
	// Quantization error in 16bpp must be bounded by the component step.
	pf := PF16()
	prop := func(r, g, b uint8) bool {
		c := RGB(r, g, b)
		d := pf.Decode(pf.Encode(c))
		dr := int(c.R()) - int(d.R())
		dg := int(c.G()) - int(d.G())
		db := int(c.B()) - int(d.B())
		abs := func(x int) int {
			if x < 0 {
				return -x
			}
			return x
		}
		// Floor quantization of a 5-bit channel loses at most
		// ceil(255/31) = 9; a 6-bit channel at most ceil(255/63) = 5.
		return abs(dr) <= 9 && abs(dg) <= 5 && abs(db) <= 9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestBitmapSetGet(t *testing.T) {
	b := NewBitmap(17, 5) // odd width exercises the partial last byte
	b.Set(0, 0, true)
	b.Set(16, 4, true)
	b.Set(8, 2, true)
	if !b.Get(0, 0) || !b.Get(16, 4) || !b.Get(8, 2) {
		t.Error("set bits not readable")
	}
	if b.Get(1, 0) || b.Get(15, 4) {
		t.Error("unset bits read as set")
	}
	b.Set(8, 2, false)
	if b.Get(8, 2) {
		t.Error("clear failed")
	}
	if b.Get(-1, 0) || b.Get(17, 0) || b.Get(0, 5) {
		t.Error("out-of-bounds Get should be false")
	}
	if got := b.Ones(); got != 2 {
		t.Errorf("Ones = %d, want 2", got)
	}
}

func TestFloydSteinbergPreservesAverage(t *testing.T) {
	// A mid-gray region should dither to roughly 50% coverage.
	f := NewFramebuffer(64, 64)
	f.Clear(RGB(128, 128, 128))
	b := NewBitmap(64, 64)
	scratch := FloydSteinbergInto(b, f, nil)
	ones := b.Ones()
	total := 64 * 64
	if ones < total*40/100 || ones > total*60/100 {
		t.Errorf("mid-gray coverage = %d/%d, want ~50%%", ones, total)
	}
	// Pure black and white must be exact.
	f.Clear(Black)
	if FloydSteinbergInto(b, f, scratch); b.Ones() != 0 {
		t.Error("black image should produce no set pixels")
	}
	f.Clear(White)
	if FloydSteinbergInto(b, f, scratch); b.Ones() != total {
		t.Error("white image should produce all set pixels")
	}
}

func TestScaleNearestGeometry(t *testing.T) {
	src := gradient(100, 50)
	dst := NewFramebuffer(50, 25)
	ScaleNearestInto(dst, src)
	// Corner pixels map to corner pixels.
	if dst.At(0, 0) != src.At(0, 0) {
		t.Error("top-left corner mismatch")
	}
	if dst.At(49, 24) != src.At(98, 48) {
		t.Error("bottom-right corner mismatch")
	}
}

func TestScaleBoxDownscaleAverages(t *testing.T) {
	// A 2x2 checkerboard of black/white downscaled to 1x1 is mid-gray.
	src := NewFramebuffer(2, 2)
	src.Set(0, 0, White)
	src.Set(1, 1, White)
	dst := ScaleBox(src, 1, 1)
	c := dst.At(0, 0)
	if c.R() < 100 || c.R() > 155 {
		t.Errorf("averaged value = %v", c)
	}
}

// scaleBoxRef and floydSteinbergRef are the allocating conversions as
// they stood before the Into forms: the byte-for-byte oracle of
// TestIntoFormsMatchReference.
func scaleBoxRef(src *Framebuffer, w, h int) *Framebuffer {
	dst := NewFramebuffer(w, h)
	if src.w == 0 || src.h == 0 || w == 0 || h == 0 {
		return dst
	}
	if w >= src.w && h >= src.h {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				dst.pix[y*w+x] = src.pix[(y*src.h/h)*src.w+x*src.w/w]
			}
		}
		return dst
	}
	for y := 0; y < h; y++ {
		sy0, sy1 := y*src.h/h, (y+1)*src.h/h
		sy1 = max(sy1, sy0+1)
		for x := 0; x < w; x++ {
			sx0, sx1 := x*src.w/w, (x+1)*src.w/w
			sx1 = max(sx1, sx0+1)
			var rs, gs, bs, n uint32
			for sy := sy0; sy < sy1; sy++ {
				for sx := sx0; sx < sx1; sx++ {
					c := src.pix[sy*src.w+sx]
					rs, gs, bs, n = rs+uint32(c.R()), gs+uint32(c.G()), bs+uint32(c.B()), n+1
				}
			}
			dst.pix[y*w+x] = RGB(uint8(rs/n), uint8(gs/n), uint8(bs/n))
		}
	}
	return dst
}

func floydSteinbergRef(src *Framebuffer) *Bitmap {
	dst := NewBitmap(src.w, src.h)
	cur, next := make([]int32, src.w+2), make([]int32, src.w+2)
	for y := 0; y < src.h; y++ {
		clear(next)
		for x := 0; x < src.w; x++ {
			v := int32(src.pix[y*src.w+x].Gray()) + cur[x+1]
			var out int32
			if v >= 128 {
				out = 255
				dst.Set(x, y, true)
			}
			e := v - out
			cur[x+2] += e * 7 / 16
			next[x] += e * 3 / 16
			next[x+1] += e * 5 / 16
			next[x+2] += e * 1 / 16
		}
		cur, next = next, cur
	}
	return dst
}

// TestIntoFormsMatchReference: ScaleBox, ScaleBoxInto and
// FloydSteinbergInto produce exactly the reference conversions across
// downscale, upscale, mixed and odd ratios, 1×1 and empty frames, into
// fresh storage and into reused storage still dirty from other content.
func TestIntoFormsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	noise := func(w, h int) *Framebuffer {
		f := NewFramebuffer(w, h)
		for i := range f.pix {
			f.pix[i] = Color(rng.Uint32() & 0xffffff)
		}
		return f
	}
	var scratch []int32
	for _, c := range []struct{ sw, sh, w, h int }{
		{640, 480, 320, 240}, {640, 480, 96, 64}, {7, 5, 3, 2}, {3, 3, 7, 5},
		{10, 4, 4, 9}, {13, 11, 13, 11}, {1, 1, 1, 1}, {5, 1, 1, 1}, {1, 1, 4, 3}, {0, 0, 3, 3},
	} {
		t.Run(fmt.Sprintf("%dx%d-to-%dx%d", c.sw, c.sh, c.w, c.h), func(t *testing.T) {
			for _, src := range []*Framebuffer{noise(c.sw, c.sh), gradient(c.sw, c.sh)} {
				want := scaleBoxRef(src, c.w, c.h)
				dirty := noise(c.w, c.h)
				ScaleBoxInto(dirty, src)
				if !ScaleBox(src, c.w, c.h).Equal(want) || !dirty.Equal(want) {
					t.Fatal("box scaling differs from the reference")
				}
				wantBits := floydSteinbergRef(want)
				for _, b := range []*Bitmap{NewBitmap(c.w, c.h), floydSteinbergRef(noise(c.w, c.h))} {
					scratch = FloydSteinbergInto(b, want, scratch)
					for i := range scratch {
						scratch[i] = rng.Int31() // reused scratch arrives dirty
					}
					if !bytes.Equal(b.Bits, wantBits.Bits) {
						t.Fatal("dithering differs from the reference")
					}
				}
			}
		})
	}
}

func TestDrawTextBasics(t *testing.T) {
	f := NewFramebuffer(100, 20)
	adv := DrawText(f, 0, 0, "Hi", White)
	if adv != 2*GlyphW {
		t.Errorf("advance = %d, want %d", adv, 2*GlyphW)
	}
	// Some pixels must have been set.
	set := 0
	for _, c := range f.Pix() {
		if c != Black {
			set++
		}
	}
	if set == 0 {
		t.Fatal("no pixels rendered")
	}
	// Rendering out of bounds must be safe.
	DrawText(f, -50, -50, "clip", White)
	DrawText(f, 95, 15, "edge", White)
}

func TestDrawTextUnknownGlyph(t *testing.T) {
	f1 := NewFramebuffer(20, 10)
	f2 := NewFramebuffer(20, 10)
	DrawText(f1, 0, 0, "\x01", White)
	DrawText(f2, 0, 0, "?", White)
	if !f1.Equal(f2) {
		t.Error("unknown glyphs should render as '?'")
	}
}

func TestDrawTextClipped(t *testing.T) {
	f := NewFramebuffer(40, 10)
	clip := R(0, 0, 6, 8)
	DrawTextClipped(f, 0, 0, "AB", White, clip)
	for y := 0; y < 10; y++ {
		for x := 6; x < 40; x++ {
			if f.At(x, y) != Black {
				t.Fatalf("pixel (%d,%d) outside clip was painted", x, y)
			}
		}
	}
}

func TestDamageBasic(t *testing.T) {
	d := NewDamage(R(0, 0, 100, 100), 8)
	if !d.Empty() {
		t.Fatal("new tracker should be empty")
	}
	d.Add(R(10, 10, 5, 5))
	d.Add(R(50, 50, 5, 5))
	if d.Empty() {
		t.Fatal("tracker should have damage")
	}
	rects := d.TakeInto(nil)
	if len(rects) == 0 {
		t.Fatal("take returned nothing")
	}
	if !d.Empty() {
		t.Fatal("take should reset")
	}
	// Union of taken rects covers both additions.
	var u Rect
	for _, r := range rects {
		u = u.Union(r)
	}
	if !u.ContainsRect(R(10, 10, 5, 5)) || !u.ContainsRect(R(50, 50, 5, 5)) {
		t.Error("taken damage does not cover additions")
	}
}

func TestDamageAbsorbsContained(t *testing.T) {
	d := NewDamage(R(0, 0, 100, 100), 8)
	d.Add(R(0, 0, 50, 50))
	d.Add(R(10, 10, 5, 5)) // contained: should not grow the list
	if got := len(d.Peek()); got != 1 {
		t.Errorf("list length = %d, want 1", got)
	}
	d.Add(R(0, 0, 100, 100)) // contains everything
	rects := d.Peek()
	if len(rects) != 1 || rects[0] != R(0, 0, 100, 100) {
		t.Errorf("container absorb failed: %+v", rects)
	}
}

func TestDamageCoalesceRespectsLimit(t *testing.T) {
	d := NewDamage(R(0, 0, 1000, 1000), 4)
	for i := 0; i < 50; i++ {
		d.Add(R(i*19%900, i*37%900, 10, 10))
	}
	if got := len(d.Peek()); got > 4 {
		t.Errorf("limit exceeded: %d rects", got)
	}
}

func TestDamageClip(t *testing.T) {
	d := NewDamage(R(0, 0, 10, 10), 8)
	d.Add(R(100, 100, 5, 5)) // fully outside
	if !d.Empty() {
		t.Error("out-of-bounds damage should be discarded")
	}
	d.Add(R(5, 5, 20, 20)) // partially outside
	if got := d.Peek(); len(got) != 1 || got[0] != R(5, 5, 5, 5) {
		t.Errorf("clipped damage = %+v", got)
	}
}

func TestDamageCoversAllAdds(t *testing.T) {
	// Property: every added rect is covered by the union of the final list,
	// regardless of merge decisions.
	prop := func(seeds []uint16) bool {
		d := NewDamage(R(0, 0, 256, 256), 6)
		var added []Rect
		for _, s := range seeds {
			r := R(int(s%200), int(s/256%200), int(s%31)+1, int(s%17)+1)
			d.Add(r)
			added = append(added, r.Intersect(R(0, 0, 256, 256)))
		}
		var u Rect
		for _, r := range d.Peek() {
			u = u.Union(r)
		}
		for _, r := range added {
			if !u.ContainsRect(r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFloydSteinberg(b *testing.B) {
	f := gradient(320, 240)
	dst, scratch := NewBitmap(320, 240), []int32(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scratch = FloydSteinbergInto(dst, f, scratch)
	}
}

func BenchmarkScaleBoxHalf(b *testing.B) {
	f := gradient(640, 480)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ScaleBox(f, 320, 240)
	}
}
