package gfx

import (
	"math/rand"
	"testing"
)

// glyphColumns returns the 5 column bytes for ch, substituting '?' for
// characters outside the printable ASCII range.
func glyphColumns(ch byte) []byte {
	off := glyphIndex(ch) * 5
	return font5x7[off : off+5]
}

// refDrawTextClipped is the pre-span-cache per-pixel implementation, kept
// as the oracle for the blitting fast path.
func refDrawTextClipped(f *Framebuffer, x, y int, s string, c Color, clip Rect) int {
	cx := x
	for i := 0; i < len(s); i++ {
		cols := glyphColumns(s[i])
		for col := 0; col < 5; col++ {
			bits := cols[col]
			for row := 0; row < 7; row++ {
				if bits&(1<<uint(row)) != 0 && clip.Contains(cx+col, y+row) {
					f.Set(cx+col, y+row, c)
				}
			}
		}
		cx += GlyphW
	}
	return cx - x
}

// refFill is the per-pixel fill oracle.
func refFill(f *Framebuffer, r Rect, c Color) {
	r = r.Intersect(f.Bounds())
	for y := r.Y; y < r.MaxY(); y++ {
		for x := r.X; x < r.MaxX(); x++ {
			f.Set(x, y, c)
		}
	}
}

func TestGlyphRowSpansMatchColumns(t *testing.T) {
	// Every glyph's span decomposition must reproduce exactly the set
	// pixels of the column-major bitmap.
	for ch := byte(fontLo); ch <= fontHi; ch++ {
		cols := glyphColumns(ch)
		rows := &glyphRowSpans[glyphIndex(ch)]
		for row := 0; row < 7; row++ {
			var want, got [5]bool
			for col := 0; col < 5; col++ {
				want[col] = cols[col]&(1<<uint(row)) != 0
			}
			for _, sp := range rows[row] {
				for x := sp.x0; x < sp.x1; x++ {
					got[x] = true
				}
			}
			if want != got {
				t.Fatalf("glyph %q row %d: spans %v != bitmap %v", ch, row, got, want)
			}
		}
	}
}

func TestDrawTextClippedMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		x, y int
		clip Rect
	}{
		{"fully-inside", 10, 10, R(0, 0, 120, 40)},
		{"negative-origin-clip", 2, 2, R(-10, -10, 30, 30)},
		{"negative-draw-origin", -7, -3, R(0, 0, 120, 40)},
		{"zero-area-clip", 10, 10, R(20, 20, 0, 5)},
		{"empty-negative-clip", 10, 10, R(5, 5, -3, -3)},
		{"glyph-straddles-left", 5, 10, R(8, 0, 50, 40)},
		{"glyph-straddles-right", 5, 10, R(0, 0, 23, 40)},
		{"glyph-straddles-top", 10, 5, R(0, 8, 120, 40)},
		{"glyph-straddles-bottom", 10, 5, R(0, 0, 120, 9)},
		{"clip-wider-than-fb", 10, 10, R(-50, -50, 500, 500)},
		{"single-pixel-clip", 11, 11, R(11, 11, 1, 1)},
		{"clip-right-of-text", 0, 10, R(100, 0, 20, 40)},
	}
	const text = "Mixed Case 123 ~!?"
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := NewFramebuffer(120, 40)
			want := NewFramebuffer(120, 40)
			got.Clear(Navy)
			want.Clear(Navy)
			a1 := DrawTextClipped(got, tc.x, tc.y, text, White, tc.clip)
			a2 := refDrawTextClipped(want, tc.x, tc.y, text, White, tc.clip)
			if a1 != a2 {
				t.Fatalf("advance = %d, want %d", a1, a2)
			}
			if !got.Equal(want) {
				t.Fatalf("clipped text mismatch (clip %+v)", tc.clip)
			}
		})
	}
}

func TestDrawTextClippedRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		w, h := 1+rng.Intn(80), 1+rng.Intn(40)
		got := NewFramebuffer(w, h)
		want := NewFramebuffer(w, h)
		x, y := rng.Intn(100)-40, rng.Intn(60)-25
		clip := R(rng.Intn(80)-30, rng.Intn(40)-15, rng.Intn(90)-5, rng.Intn(50)-5)
		s := "Hello, UniInt!"[:1+rng.Intn(13)]
		DrawTextClipped(got, x, y, s, Green, clip)
		refDrawTextClipped(want, x, y, s, Green, clip)
		if !got.Equal(want) {
			t.Fatalf("iter %d: mismatch at %d,%d clip %+v text %q fb %dx%d",
				i, x, y, clip, s, w, h)
		}
	}
}

func TestDrawTextMatchesClippedToBounds(t *testing.T) {
	a := NewFramebuffer(100, 30)
	b := NewFramebuffer(100, 30)
	DrawText(a, -3, -2, "edge @ edge", Red)
	refDrawTextClipped(b, -3, -2, "edge @ edge", Red, b.Bounds())
	if !a.Equal(b) {
		t.Fatal("DrawText must equal reference clipped to bounds")
	}
}

func TestFillCopyDoublingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		w, h := 1+rng.Intn(70), 1+rng.Intn(50)
		got := NewFramebuffer(w, h)
		want := NewFramebuffer(w, h)
		r := R(rng.Intn(90)-20, rng.Intn(70)-15, rng.Intn(90)-5, rng.Intn(70)-5)
		got.Fill(r, Yellow)
		refFill(want, r, Yellow)
		if !got.Equal(want) {
			t.Fatalf("iter %d: fill mismatch rect %+v fb %dx%d", i, r, w, h)
		}
	}
	// Degenerate shapes.
	f := NewFramebuffer(10, 10)
	f.Fill(R(3, 3, 1, 1), Red)
	if f.At(3, 3) != Red {
		t.Fatal("1×1 fill")
	}
	f.Fill(R(0, 0, 0, 5), Green)
	f.Fill(R(0, 0, 5, -1), Green)
	f.Fill(R(20, 20, 5, 5), Green) // fully outside
	for y := 0; y < 10; y++ {
		for x := 0; x < 10; x++ {
			if f.At(x, y) == Green {
				t.Fatal("degenerate fill painted pixels")
			}
		}
	}
}

func TestPainterClipping(t *testing.T) {
	// Painter primitives against draw-unclipped-then-mask reference.
	ops := []func(p Painter){
		func(p Painter) { p.Fill(R(2, 2, 30, 20), Red) },
		func(p Painter) { p.Border(R(1, 1, 38, 26), Green) },
		func(p Painter) { p.Bevel(R(4, 3, 20, 14), true) },
		func(p Painter) { p.HLine(-5, 9, 60, Blue) },
		func(p Painter) { p.VLine(12, -4, 50, Yellow) },
		func(p Painter) { p.DrawText(3, 8, "clip me", White) },
	}
	clips := []Rect{
		R(0, 0, 40, 28),   // full
		R(5, 5, 12, 9),    // interior
		R(-8, -8, 20, 20), // negative origin
		R(10, 10, 0, 0),   // zero area
		R(35, 20, 30, 30), // partially off the right/bottom
	}
	for ci, clip := range clips {
		got := NewFramebuffer(40, 28)
		got.Clear(Gray)
		p := NewPainter(got).In(clip)
		for _, op := range ops {
			op(p)
		}
		// Reference: draw unclipped on a copy, then merge only clip pixels.
		full := NewFramebuffer(40, 28)
		full.Clear(Gray)
		for _, op := range ops {
			op(NewPainter(full))
		}
		want := NewFramebuffer(40, 28)
		want.Clear(Gray)
		cb := clip.Intersect(want.Bounds())
		want.Blit(cb.X, cb.Y, full, cb)
		if !got.Equal(want) {
			t.Fatalf("clip %d (%+v): painter output != masked unclipped output", ci, clip)
		}
	}
	// Sub-clipping only ever shrinks.
	fb := NewFramebuffer(20, 20)
	p := NewPainter(fb).In(R(2, 2, 10, 10)).In(R(0, 0, 50, 50))
	if p.Clip() != R(2, 2, 10, 10) {
		t.Fatalf("In grew the clip: %+v", p.Clip())
	}
	if !NewPainter(fb).In(R(30, 30, 5, 5)).Empty() {
		t.Fatal("disjoint clip should be empty")
	}
}
