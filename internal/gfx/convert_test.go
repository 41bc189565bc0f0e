package gfx

import (
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
	b := FloydSteinberg(f)
	ones := b.Ones()
	total := 64 * 64
	if ones < total*40/100 || ones > total*60/100 {
		t.Errorf("mid-gray coverage = %d/%d, want ~50%%", ones, total)
	}
	// Pure black and white must be exact.
	f.Clear(Black)
	if FloydSteinberg(f).Ones() != 0 {
		t.Error("black image should produce no set pixels")
	}
	f.Clear(White)
	if FloydSteinberg(f).Ones() != total {
		t.Error("white image should produce all set pixels")
	}
}

func TestScaleNearestGeometry(t *testing.T) {
	src := gradient(100, 50)
	dst := ScaleNearest(src, 50, 25)
	if dst.W() != 50 || dst.H() != 25 {
		t.Fatalf("geometry %dx%d", dst.W(), dst.H())
	}
	// Corner pixels map to corner pixels.
	if dst.At(0, 0) != src.At(0, 0) {
		t.Error("top-left corner mismatch")
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
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FloydSteinberg(f)
	}
}

func BenchmarkScaleBoxHalf(b *testing.B) {
	f := gradient(640, 480)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ScaleBox(f, 320, 240)
	}
}
