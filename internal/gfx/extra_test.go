package gfx

import (
	"strings"
	"testing"
)

func TestDamageAddAllAndResize(t *testing.T) {
	d := NewDamage(R(0, 0, 50, 50), 4)
	d.Add(R(1, 1, 2, 2))
	d.AddAll()
	rects := d.Peek()
	if len(rects) != 1 || rects[0] != R(0, 0, 50, 50) {
		t.Errorf("AddAll = %+v", rects)
	}
	d.Resize(R(0, 0, 80, 20))
	if got := d.Peek(); len(got) != 1 || got[0] != R(0, 0, 80, 20) {
		t.Errorf("after resize = %+v", got)
	}
	// Default limit kicks in for invalid values.
	d2 := NewDamage(R(0, 0, 10, 10), 0)
	d2.Add(R(0, 0, 1, 1))
	if d2.Empty() {
		t.Error("tracker with defaulted limit broken")
	}
}

func TestTextHelpers(t *testing.T) {
	if TextWidth("abc") != 3*GlyphW {
		t.Errorf("width = %d", TextWidth("abc"))
	}
	if TextHeight() != GlyphH {
		t.Errorf("height = %d", TextHeight())
	}
	if x := CenterTextX(10, 100, "ab"); x != 10+(100-2*GlyphW)/2 {
		t.Errorf("center = %d", x)
	}
}

func TestRectOverlaps(t *testing.T) {
	if !R(0, 0, 5, 5).Overlaps(R(4, 4, 5, 5)) {
		t.Error("corner overlap missed")
	}
	if R(0, 0, 5, 5).Overlaps(R(5, 0, 5, 5)) {
		t.Error("touching edges are not overlapping")
	}
}

func TestPixelFormatHelpers(t *testing.T) {
	if PF32().BytesPerPixel() != 4 || PF16().BytesPerPixel() != 2 || PF8().BytesPerPixel() != 1 {
		t.Error("bytes per pixel wrong")
	}
	bad := PF32()
	bad.BitsPerPixel = 12
	if bad.Valid() {
		t.Error("12bpp should be invalid")
	}
	bad = PF32()
	bad.TrueColor = false
	if bad.Valid() {
		t.Error("palette formats unsupported")
	}
	bad = PF32()
	bad.RedMax = 0
	if bad.Valid() {
		t.Error("zero component max should be invalid")
	}
}

func TestAsciiArtShapes(t *testing.T) {
	f := NewFramebuffer(40, 20)
	f.Fill(R(0, 0, 20, 20), White)
	art := Ascii(f, 20)
	lines := strings.Split(strings.TrimRight(art, "\n"), "\n")
	if len(lines) != 5 { // 20 high → 10 scaled → /2 for cell aspect
		t.Errorf("lines = %d", len(lines))
	}
	// Left half bright, right half dark.
	if lines[0][0] != '@' {
		t.Errorf("bright cell = %q", lines[0][0])
	}
	if lines[0][len(lines[0])-1] != ' ' {
		t.Errorf("dark cell = %q", lines[0][len(lines[0])-1])
	}
	if Ascii(NewFramebuffer(0, 0), 10) != "" {
		t.Error("degenerate frame should render empty")
	}

	b := NewBitmap(4, 4)
	b.Set(0, 0, true) // top only → '"'
	b.Set(1, 1, true) // bottom only → ','
	b.Set(2, 0, true)
	b.Set(2, 1, true) // both → '#'
	ba := AsciiBitmap(b)
	row := strings.Split(ba, "\n")[0]
	if row[0] != '"' || row[1] != ',' || row[2] != '#' || row[3] != ' ' {
		t.Errorf("bitmap row = %q", row)
	}
}

func TestFramebufferEqualGeometry(t *testing.T) {
	if NewFramebuffer(2, 2).Equal(NewFramebuffer(3, 2)) {
		t.Error("different geometry cannot be equal")
	}
	if !NewFramebuffer(0, 0).Equal(NewFramebuffer(0, 0)) {
		t.Error("empty buffers are equal")
	}
	// Negative dimensions clamp to zero.
	f := NewFramebuffer(-3, -4)
	if f.W() != 0 || f.H() != 0 {
		t.Errorf("negative geometry = %dx%d", f.W(), f.H())
	}
}
