package gfx

// Painter is a clipped drawing context over a Framebuffer: every primitive
// discards pixels outside the clip rectangle. Painters are small values —
// deriving a sub-clipped painter with In is allocation-free — which is what
// lets the toolkit's damage-clipped renderer hand each widget a context
// restricted to (damage rect ∩ widget bounds) without any setup cost.
type Painter struct {
	fb   *Framebuffer
	clip Rect
}

// NewPainter returns a painter over fb clipped to the full framebuffer.
func NewPainter(fb *Framebuffer) Painter {
	return Painter{fb: fb, clip: fb.Bounds()}
}

// In returns a painter whose clip is the intersection of the current clip
// with r. Clips only ever shrink.
func (p Painter) In(r Rect) Painter {
	p.clip = p.clip.Intersect(r)
	return p
}

// Clip returns the current clip rectangle.
func (p Painter) Clip() Rect { return p.clip }

// Empty reports whether the clip contains no pixels (every draw is a no-op).
func (p Painter) Empty() bool { return p.clip.Empty() }

// Fill paints every pixel of r inside the clip with c.
func (p Painter) Fill(r Rect, c Color) {
	p.fb.Fill(r.Intersect(p.clip), c)
}

// HLine draws a horizontal line from (x, y) to (x+w-1, y), clipped.
func (p Painter) HLine(x, y, w int, c Color) { p.Fill(Rect{X: x, Y: y, W: w, H: 1}, c) }

// VLine draws a vertical line from (x, y) to (x, y+h-1), clipped.
func (p Painter) VLine(x, y, h int, c Color) { p.Fill(Rect{X: x, Y: y, W: 1, H: h}, c) }

// Border draws a 1-pixel border just inside r, clipped. The four edges are
// disjoint rect fills, so clipping each edge equals clipping the whole
// border — the property the incremental renderer's equivalence rests on.
func (p Painter) Border(r Rect, c Color) {
	if r.Empty() {
		return
	}
	p.HLine(r.X, r.Y, r.W, c)
	p.HLine(r.X, r.MaxY()-1, r.W, c)
	p.VLine(r.X, r.Y, r.H, c)
	p.VLine(r.MaxX()-1, r.Y, r.H, c)
}

// Bevel draws the toolkit's raised/sunken 3D border, clipped.
func (p Painter) Bevel(r Rect, sunken bool) {
	if r.Empty() {
		return
	}
	hi, lo := White, DarkGray
	if sunken {
		hi, lo = DarkGray, White
	}
	p.HLine(r.X, r.Y, r.W-1, hi)
	p.VLine(r.X, r.Y, r.H-1, hi)
	p.HLine(r.X, r.MaxY()-1, r.W, lo)
	p.VLine(r.MaxX()-1, r.Y, r.H, lo)
}

// DrawText renders s with the glyph cell's top-left at (x, y), clipped.
// Returns the advance in pixels.
func (p Painter) DrawText(x, y int, s string, c Color) int {
	return DrawTextClipped(p.fb, x, y, s, c, p.clip)
}
