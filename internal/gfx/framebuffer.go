package gfx

import "slices"

// Framebuffer is a rectangular grid of Colors. The toolkit renders widget
// trees into a Framebuffer; the UniInt server ships rectangles of it over
// the universal interaction protocol; output plug-ins convert it for the
// selected output device.
//
// Framebuffer is not safe for concurrent use; owners serialize access (the
// toolkit display holds a lock around render + read).
type Framebuffer struct {
	w, h int
	pix  []Color // len == w*h, row-major
	gen  uint64  // advanced by every write; see Gen
	// Per-row content keys, made by the first whole-width Key. stale[y] is
	// nonzero while keys[y] does not cover row y: the generation of the
	// latest write to it since it was keyed, or ^0 if it never was.
	keys  []Key
	stale []uint64
}

// NewFramebuffer allocates a w×h framebuffer filled with black.
func NewFramebuffer(w, h int) *Framebuffer {
	if w < 0 {
		w = 0
	}
	if h < 0 {
		h = 0
	}
	return &Framebuffer{w: w, h: h, pix: make([]Color, w*h)}
}

// W returns the width in pixels.
func (f *Framebuffer) W() int { return f.w }

// H returns the height in pixels.
func (f *Framebuffer) H() int { return f.h }

// Bounds returns the rectangle covering the whole framebuffer.
func (f *Framebuffer) Bounds() Rect { return Rect{W: f.w, H: f.h} }

// Pix exposes the raw pixel slice (row-major, length W*H). Callers must not
// resize it; it is exposed for zero-copy encoders. A write through it
// neither advances Gen nor stamps the rows Key memoises, so only a
// framebuffer nobody has taken a generation or a key of (a frame being
// built, a client's decode target) may be written through it; obslint
// refuses the other production writes.
func (f *Framebuffer) Pix() []Color { return f.pix }

// Gen returns the content generation: it advances on every write through a
// Framebuffer method, so two reads of one framebuffer returning the same
// generation saw the same pixels. The server's wire model uses it to answer
// "nothing changed since the client caught up" without comparing pixels.
func (f *Framebuffer) Gen() uint64 { return f.gen }

// At returns the color at (x, y); out-of-bounds reads return Black.
func (f *Framebuffer) At(x, y int) Color {
	if x < 0 || y < 0 || x >= f.w || y >= f.h {
		return Black
	}
	return f.pix[y*f.w+x]
}

// Set writes the color at (x, y); out-of-bounds writes are ignored.
func (f *Framebuffer) Set(x, y int, c Color) {
	if x < 0 || y < 0 || x >= f.w || y >= f.h {
		return
	}
	f.pix[y*f.w+x] = c
	f.wrote(y, y+1)
}

// Fill paints every pixel inside r (clipped to the framebuffer) with c.
// The first row is filled by copy-doubling and the remaining rows are
// row-to-row copies, so wide fills run at memmove speed instead of a
// per-pixel store loop.
func (f *Framebuffer) Fill(r Rect, c Color) {
	r = r.Intersect(f.Bounds())
	if r.Empty() {
		return
	}
	f.wrote(r.Y, r.MaxY())
	row0 := f.pix[r.Y*f.w+r.X : r.Y*f.w+r.MaxX()]
	row0[0] = c
	for n := 1; n < len(row0); n *= 2 {
		copy(row0[n:], row0[:n])
	}
	for y := r.Y + 1; y < r.MaxY(); y++ {
		copy(f.pix[y*f.w+r.X:y*f.w+r.MaxX()], row0)
	}
}

// Clear fills the whole framebuffer with c.
func (f *Framebuffer) Clear(c Color) { f.Fill(f.Bounds(), c) }

// HLine draws a horizontal line from (x, y) to (x+w-1, y).
func (f *Framebuffer) HLine(x, y, w int, c Color) { f.Fill(Rect{X: x, Y: y, W: w, H: 1}, c) }

// VLine draws a vertical line from (x, y) to (x, y+h-1).
func (f *Framebuffer) VLine(x, y, h int, c Color) { f.Fill(Rect{X: x, Y: y, W: 1, H: h}, c) }

// Border draws a 1-pixel border just inside r.
func (f *Framebuffer) Border(r Rect, c Color) {
	if r.Empty() {
		return
	}
	f.HLine(r.X, r.Y, r.W, c)
	f.HLine(r.X, r.MaxY()-1, r.W, c)
	f.VLine(r.X, r.Y, r.H, c)
	f.VLine(r.MaxX()-1, r.Y, r.H, c)
}

// Bevel draws the classic raised/sunken 3D border used by the toolkit's
// default theme: light on top-left, dark on bottom-right (or inverted when
// sunken is true).
func (f *Framebuffer) Bevel(r Rect, sunken bool) {
	if r.Empty() {
		return
	}
	hi, lo := White, DarkGray
	if sunken {
		hi, lo = DarkGray, White
	}
	f.HLine(r.X, r.Y, r.W-1, hi)
	f.VLine(r.X, r.Y, r.H-1, hi)
	f.HLine(r.X, r.MaxY()-1, r.W, lo)
	f.VLine(r.MaxX()-1, r.Y, r.H, lo)
}

// Blit copies the src rectangle sr into this framebuffer with its top-left
// corner at (dx, dy). Source and destination are clipped.
func (f *Framebuffer) Blit(dx, dy int, src *Framebuffer, sr Rect) {
	sr = sr.Intersect(src.Bounds())
	if sr.Empty() {
		return
	}
	// Clip destination.
	dr := Rect{X: dx, Y: dy, W: sr.W, H: sr.H}.Intersect(f.Bounds())
	if dr.Empty() {
		return
	}
	// Re-derive the source origin after destination clipping.
	sx := sr.X + (dr.X - dx)
	sy := sr.Y + (dr.Y - dy)
	f.wrote(dr.Y, dr.MaxY())
	for y := 0; y < dr.H; y++ {
		srow := src.pix[(sy+y)*src.w+sx : (sy+y)*src.w+sx+dr.W]
		drow := f.pix[(dr.Y+y)*f.w+dr.X : (dr.Y+y)*f.w+dr.X+dr.W]
		copy(drow, srow)
	}
}

// CopyRect moves the rectangle sr within the same framebuffer so that its
// top-left lands at (dx, dy), handling overlap correctly. This is the
// operation behind the protocol's CopyRect encoding.
func (f *Framebuffer) CopyRect(dx, dy int, sr Rect) {
	sr = sr.Intersect(f.Bounds())
	if sr.Empty() {
		return
	}
	dr := Rect{X: dx, Y: dy, W: sr.W, H: sr.H}.Intersect(f.Bounds())
	if dr.Empty() {
		return
	}
	sx := sr.X + (dr.X - dx)
	sy := sr.Y + (dr.Y - dy)
	f.wrote(dr.Y, dr.MaxY())
	if dr.Y > sy || (dr.Y == sy && dr.X > sx) {
		// Copy bottom-up / right-to-left to avoid clobbering the source.
		for y := dr.H - 1; y >= 0; y-- {
			srow := f.pix[(sy+y)*f.w+sx : (sy+y)*f.w+sx+dr.W]
			drow := f.pix[(dr.Y+y)*f.w+dr.X : (dr.Y+y)*f.w+dr.X+dr.W]
			copy(drow, srow)
		}
		return
	}
	for y := 0; y < dr.H; y++ {
		srow := f.pix[(sy+y)*f.w+sx : (sy+y)*f.w+sx+dr.W]
		drow := f.pix[(dr.Y+y)*f.w+dr.X : (dr.Y+y)*f.w+dr.X+dr.W]
		copy(drow, srow)
	}
}

// Clone returns a deep copy of the framebuffer. (slices.Clone leaves out
// the zeroing a make would do before the copy.)
func (f *Framebuffer) Clone() *Framebuffer {
	return &Framebuffer{w: f.w, h: f.h, pix: slices.Clone(f.pix)}
}

// SubImage copies the rectangle r (clipped) into a fresh framebuffer.
func (f *Framebuffer) SubImage(r Rect) *Framebuffer {
	r = r.Intersect(f.Bounds())
	s := NewFramebuffer(r.W, r.H)
	s.Blit(0, 0, f, r)
	return s
}

// Equal reports whether two framebuffers have identical geometry and pixels.
func (f *Framebuffer) Equal(g *Framebuffer) bool {
	if f.w != g.w || f.h != g.h {
		return false
	}
	for i, p := range f.pix {
		if g.pix[i] != p {
			return false
		}
	}
	return true
}

// DiffRect returns the smallest rectangle covering every pixel where f and g
// differ, or an empty Rect when they are identical. Both framebuffers must
// have identical geometry; mismatched geometry returns the full bounds.
func (f *Framebuffer) DiffRect(g *Framebuffer) Rect {
	if f.w != g.w || f.h != g.h {
		return f.Bounds()
	}
	minX, minY := f.w, f.h
	maxX, maxY := -1, -1
	for y := 0; y < f.h; y++ {
		row := f.pix[y*f.w : (y+1)*f.w]
		grow := g.pix[y*f.w : (y+1)*f.w]
		for x := 0; x < f.w; x++ {
			if row[x] != grow[x] {
				if x < minX {
					minX = x
				}
				if x > maxX {
					maxX = x
				}
				if y < minY {
					minY = y
				}
				maxY = y
			}
		}
	}
	if maxX < 0 {
		return Rect{}
	}
	return Rect{X: minX, Y: minY, W: maxX - minX + 1, H: maxY - minY + 1}
}
