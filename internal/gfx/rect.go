// Package gfx provides the software raster substrate used by the whole
// system: framebuffers, rectangle algebra, damage tracking, a bitmap font,
// scaling and color-reduction (dithering, quantization) routines.
//
// Everything in this package is deliberately free of platform dependencies:
// the window system of the paper's prototype (X11) is replaced by in-memory
// framebuffers that the toolkit draws into and the UniInt server ships over
// the universal interaction protocol.
package gfx

// Rect is an axis-aligned rectangle. Min is inclusive, Max is exclusive,
// following the image.Rectangle convention.
type Rect struct {
	X, Y int // top-left corner
	W, H int // width and height; a Rect with W<=0 or H<=0 is empty
}

// R is shorthand for constructing a Rect.
func R(x, y, w, h int) Rect { return Rect{X: x, Y: y, W: w, H: h} }

// Empty reports whether the rectangle contains no pixels.
func (r Rect) Empty() bool { return r.W <= 0 || r.H <= 0 }

// Area returns the number of pixels covered by r (0 for empty rects).
func (r Rect) Area() int {
	if r.Empty() {
		return 0
	}
	return r.W * r.H
}

// MaxX returns the exclusive right edge.
func (r Rect) MaxX() int { return r.X + r.W }

// MaxY returns the exclusive bottom edge.
func (r Rect) MaxY() int { return r.Y + r.H }

// Contains reports whether the point (x, y) lies inside r.
func (r Rect) Contains(x, y int) bool {
	return x >= r.X && x < r.X+r.W && y >= r.Y && y < r.Y+r.H
}

// ContainsRect reports whether s lies entirely inside r. An empty s is
// contained in anything.
func (r Rect) ContainsRect(s Rect) bool {
	if s.Empty() {
		return true
	}
	return s.X >= r.X && s.Y >= r.Y && s.MaxX() <= r.MaxX() && s.MaxY() <= r.MaxY()
}

// Intersect returns the largest rectangle contained in both r and s. If the
// rectangles do not overlap the result is empty.
func (r Rect) Intersect(s Rect) Rect {
	x0 := max(r.X, s.X)
	y0 := max(r.Y, s.Y)
	x1 := min(r.MaxX(), s.MaxX())
	y1 := min(r.MaxY(), s.MaxY())
	if x1 <= x0 || y1 <= y0 {
		return Rect{}
	}
	return Rect{X: x0, Y: y0, W: x1 - x0, H: y1 - y0}
}

// Union returns the smallest rectangle containing both r and s. Empty
// rectangles are ignored.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	x0 := min(r.X, s.X)
	y0 := min(r.Y, s.Y)
	x1 := max(r.MaxX(), s.MaxX())
	y1 := max(r.MaxY(), s.MaxY())
	return Rect{X: x0, Y: y0, W: x1 - x0, H: y1 - y0}
}

// Overlaps reports whether r and s share at least one pixel.
func (r Rect) Overlaps(s Rect) bool { return !r.Intersect(s).Empty() }

// Inset returns r shrunk by n pixels on every side. If the result would be
// smaller than zero in either dimension, an empty Rect is returned.
func (r Rect) Inset(n int) Rect {
	r.X += n
	r.Y += n
	r.W -= 2 * n
	r.H -= 2 * n
	if r.Empty() {
		return Rect{}
	}
	return r
}

// SubtractInto appends to dst up to four disjoint rectangles that exactly
// cover r minus s, and returns the extended slice. With a stack-backed dst
// of capacity 4 the operation is allocation-free.
func (r Rect) SubtractInto(dst []Rect, s Rect) []Rect {
	if r.Empty() {
		return dst
	}
	s = s.Intersect(r)
	if s.Empty() {
		return append(dst, r)
	}
	if s.Y > r.Y { // band above s
		dst = append(dst, Rect{X: r.X, Y: r.Y, W: r.W, H: s.Y - r.Y})
	}
	if s.MaxY() < r.MaxY() { // band below s
		dst = append(dst, Rect{X: r.X, Y: s.MaxY(), W: r.W, H: r.MaxY() - s.MaxY()})
	}
	if s.X > r.X { // band left of s, within s's rows
		dst = append(dst, Rect{X: r.X, Y: s.Y, W: s.X - r.X, H: s.H})
	}
	if s.MaxX() < r.MaxX() { // band right of s, within s's rows
		dst = append(dst, Rect{X: s.MaxX(), Y: s.Y, W: r.MaxX() - s.MaxX(), H: s.H})
	}
	return dst
}

// Canon returns the canonical form of r: empty rectangles all map to the
// zero Rect so that equality comparisons behave.
func (r Rect) Canon() Rect {
	if r.Empty() {
		return Rect{}
	}
	return r
}
