package gfx

import "testing"

func TestFramebufferFillAndAt(t *testing.T) {
	f := NewFramebuffer(10, 10)
	f.Fill(R(2, 3, 4, 5), Red)
	if f.At(2, 3) != Red || f.At(5, 7) != Red {
		t.Error("fill did not cover interior")
	}
	if f.At(1, 3) != Black || f.At(6, 3) != Black || f.At(2, 8) != Black {
		t.Error("fill leaked outside rect")
	}
	// Out-of-bounds access must be safe.
	if f.At(-1, -1) != Black || f.At(100, 100) != Black {
		t.Error("out-of-bounds At should return Black")
	}
	f.Set(-5, -5, White) // must not panic
}

func TestFramebufferFillClipped(t *testing.T) {
	f := NewFramebuffer(4, 4)
	f.Fill(R(-10, -10, 100, 100), Blue)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			if f.At(x, y) != Blue {
				t.Fatalf("pixel (%d,%d) not filled", x, y)
			}
		}
	}
}

func TestFramebufferBlit(t *testing.T) {
	src := NewFramebuffer(4, 4)
	src.Clear(Green)
	dst := NewFramebuffer(8, 8)
	dst.Blit(2, 2, src, src.Bounds())
	if dst.At(2, 2) != Green || dst.At(5, 5) != Green {
		t.Error("blit missed target area")
	}
	if dst.At(1, 1) != Black || dst.At(6, 6) != Black {
		t.Error("blit overflowed target area")
	}
}

func TestFramebufferBlitClipsNegativeDest(t *testing.T) {
	src := NewFramebuffer(4, 4)
	src.Clear(Red)
	dst := NewFramebuffer(4, 4)
	dst.Blit(-2, -2, src, src.Bounds())
	if dst.At(0, 0) != Red || dst.At(1, 1) != Red {
		t.Error("clipped blit should still write the visible part")
	}
	if dst.At(2, 2) != Black {
		t.Error("blit wrote past the source extent")
	}
}

func TestFramebufferCopyRectOverlap(t *testing.T) {
	f := NewFramebuffer(10, 1)
	for x := 0; x < 10; x++ {
		f.Set(x, 0, RGB(uint8(x*20), 0, 0))
	}
	// Shift [0..5) right by 2: overlapping forward copy.
	f.CopyRect(2, 0, R(0, 0, 5, 1))
	for x := 0; x < 5; x++ {
		want := RGB(uint8(x*20), 0, 0)
		if f.At(x+2, 0) != want {
			t.Fatalf("pixel %d after overlap copy = %v, want %v", x+2, f.At(x+2, 0), want)
		}
	}
}

func TestFramebufferCopyRectBackward(t *testing.T) {
	f := NewFramebuffer(10, 1)
	for x := 0; x < 10; x++ {
		f.Set(x, 0, RGB(0, uint8(x*20), 0))
	}
	f.CopyRect(0, 0, R(2, 0, 5, 1))
	for x := 0; x < 5; x++ {
		want := RGB(0, uint8((x+2)*20), 0)
		if f.At(x, 0) != want {
			t.Fatalf("pixel %d after backward copy = %v, want %v", x, f.At(x, 0), want)
		}
	}
}

func TestFramebufferDiffRect(t *testing.T) {
	a := NewFramebuffer(10, 10)
	b := a.Clone()
	if d := a.DiffRect(b); !d.Empty() {
		t.Errorf("identical buffers should have empty diff, got %+v", d)
	}
	b.Set(3, 4, Red)
	b.Set(7, 8, Blue)
	if d := a.DiffRect(b); d != R(3, 4, 5, 5) {
		t.Errorf("DiffRect = %+v, want {3 4 5 5}", d)
	}
}

func TestFramebufferSubImage(t *testing.T) {
	f := NewFramebuffer(10, 10)
	f.Fill(R(2, 2, 3, 3), Yellow)
	s := f.SubImage(R(2, 2, 3, 3))
	if s.W() != 3 || s.H() != 3 {
		t.Fatalf("sub image geometry %dx%d", s.W(), s.H())
	}
	if s.At(0, 0) != Yellow || s.At(2, 2) != Yellow {
		t.Error("sub image content wrong")
	}
}

func TestBevelAndBorder(t *testing.T) {
	f := NewFramebuffer(10, 10)
	f.Border(R(0, 0, 10, 10), Red)
	if f.At(0, 0) != Red || f.At(9, 9) != Red || f.At(0, 9) != Red {
		t.Error("border corners not drawn")
	}
	if f.At(5, 5) != Black {
		t.Error("border filled interior")
	}
	g := NewFramebuffer(10, 10)
	g.Bevel(R(0, 0, 10, 10), false)
	if g.At(0, 0) != White {
		t.Error("raised bevel should be light at top-left")
	}
	if g.At(9, 9) != DarkGray {
		t.Error("raised bevel should be dark at bottom-right")
	}
	h := NewFramebuffer(10, 10)
	h.Bevel(R(0, 0, 10, 10), true)
	if h.At(0, 0) != DarkGray {
		t.Error("sunken bevel should be dark at top-left")
	}
}

// TestGenAdvancesOnEveryWrite: each pixel-writing method moves the content
// generation, and reading does not — the wire model trusts an unchanged
// generation to mean unchanged pixels.
func TestGenAdvancesOnEveryWrite(t *testing.T) {
	src := NewFramebuffer(8, 8)
	writes := map[string]func(f *Framebuffer){
		"Set":      func(f *Framebuffer) { f.Set(1, 1, Red) },
		"Fill":     func(f *Framebuffer) { f.Fill(R(1, 1, 3, 3), Red) },
		"Clear":    func(f *Framebuffer) { f.Clear(Red) },
		"HLine":    func(f *Framebuffer) { f.HLine(0, 2, 5, Red) },
		"VLine":    func(f *Framebuffer) { f.VLine(2, 0, 5, Red) },
		"Border":   func(f *Framebuffer) { f.Border(R(0, 0, 6, 6), Red) },
		"Bevel":    func(f *Framebuffer) { f.Bevel(R(0, 0, 6, 6), true) },
		"Blit":     func(f *Framebuffer) { f.Blit(2, 2, src, R(0, 0, 4, 4)) },
		"CopyRect": func(f *Framebuffer) { f.CopyRect(1, 0, R(0, 0, 4, 4)) },
		"DrawText": func(f *Framebuffer) { DrawText(f, 0, 0, "A", Red) },
		"Painter":  func(f *Framebuffer) { NewPainter(f).In(R(0, 0, 4, 4)).DrawText(1, 0, "B", Red) },
	}
	for name, write := range writes {
		f := NewFramebuffer(16, 16)
		g0 := f.Gen()
		write(f)
		if f.Gen() == g0 {
			t.Errorf("%s left the generation at %d", name, g0)
		}
	}

	f := NewFramebuffer(16, 16)
	f.Fill(R(0, 0, 4, 4), Red)
	g := f.Gen()
	_ = f.At(1, 1)
	_ = f.Pix()
	_ = f.SubImage(R(0, 0, 4, 4))
	_ = f.Clone()
	_ = f.Equal(src)
	_ = f.DiffRect(src)
	src.Blit(0, 0, f, f.Bounds())
	if f.Gen() != g {
		t.Errorf("reads moved the generation %d -> %d", g, f.Gen())
	}
}

func BenchmarkFramebufferFill(b *testing.B) {
	f := NewFramebuffer(640, 480)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Fill(f.Bounds(), Color(i))
	}
}

func BenchmarkFramebufferBlit(b *testing.B) {
	src := NewFramebuffer(320, 240)
	dst := NewFramebuffer(640, 480)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst.Blit(10, 10, src, src.Bounds())
	}
}
