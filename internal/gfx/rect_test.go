package gfx

import (
	"testing"
	"testing/quick"
)

func TestRectEmpty(t *testing.T) {
	tests := []struct {
		name string
		r    Rect
		want bool
	}{
		{"zero", Rect{}, true},
		{"negative width", R(0, 0, -1, 5), true},
		{"zero height", R(3, 3, 5, 0), true},
		{"unit", R(0, 0, 1, 1), false},
		{"normal", R(10, 20, 30, 40), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.r.Empty(); got != tt.want {
				t.Errorf("Empty() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestRectIntersect(t *testing.T) {
	tests := []struct {
		name string
		a, b Rect
		want Rect
	}{
		{"identical", R(0, 0, 10, 10), R(0, 0, 10, 10), R(0, 0, 10, 10)},
		{"disjoint", R(0, 0, 5, 5), R(10, 10, 5, 5), Rect{}},
		{"touching edges", R(0, 0, 5, 5), R(5, 0, 5, 5), Rect{}},
		{"overlap", R(0, 0, 10, 10), R(5, 5, 10, 10), R(5, 5, 5, 5)},
		{"contained", R(0, 0, 10, 10), R(2, 3, 4, 5), R(2, 3, 4, 5)},
		{"with empty", R(0, 0, 10, 10), Rect{}, Rect{}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Intersect(tt.b).Canon(); got != tt.want {
				t.Errorf("Intersect = %+v, want %+v", got, tt.want)
			}
			// Intersection is commutative.
			if got := tt.b.Intersect(tt.a).Canon(); got != tt.want {
				t.Errorf("reverse Intersect = %+v, want %+v", got, tt.want)
			}
		})
	}
}

func TestRectUnion(t *testing.T) {
	tests := []struct {
		name string
		a, b Rect
		want Rect
	}{
		{"identical", R(0, 0, 10, 10), R(0, 0, 10, 10), R(0, 0, 10, 10)},
		{"disjoint", R(0, 0, 5, 5), R(10, 10, 5, 5), R(0, 0, 15, 15)},
		{"empty left", Rect{}, R(1, 2, 3, 4), R(1, 2, 3, 4)},
		{"empty right", R(1, 2, 3, 4), Rect{}, R(1, 2, 3, 4)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Union(tt.b); got != tt.want {
				t.Errorf("Union = %+v, want %+v", got, tt.want)
			}
		})
	}
}

func TestRectContains(t *testing.T) {
	r := R(10, 10, 5, 5)
	if !r.Contains(10, 10) {
		t.Error("top-left corner should be contained")
	}
	if r.Contains(15, 10) || r.Contains(10, 15) {
		t.Error("exclusive max edge should not be contained")
	}
	if !r.ContainsRect(R(11, 11, 2, 2)) {
		t.Error("inner rect should be contained")
	}
	if r.ContainsRect(R(11, 11, 10, 2)) {
		t.Error("overflowing rect should not be contained")
	}
	if !r.ContainsRect(Rect{}) {
		t.Error("empty rect is contained in anything")
	}
}

func TestRectInset(t *testing.T) {
	if got := R(0, 0, 10, 10).Inset(2); got != R(2, 2, 6, 6) {
		t.Errorf("Inset(2) = %+v", got)
	}
	if got := R(0, 0, 4, 4).Inset(2); !got.Empty() {
		t.Errorf("over-inset should be empty, got %+v", got)
	}
}

// quickRect maps arbitrary ints into small bounded rects so quick tests
// explore overlapping cases rather than wildly disjoint ones.
func quickRect(x, y, w, h int16) Rect {
	return Rect{X: int(x % 50), Y: int(y % 50), W: int(w%50) + 1, H: int(h%50) + 1}
}

func TestRectIntersectProperties(t *testing.T) {
	// The intersection is contained in both operands.
	prop := func(x1, y1, w1, h1, x2, y2, w2, h2 int16) bool {
		a := quickRect(x1, y1, w1, h1)
		b := quickRect(x2, y2, w2, h2)
		i := a.Intersect(b)
		if i.Empty() {
			return true
		}
		return a.ContainsRect(i) && b.ContainsRect(i)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestRectUnionProperties(t *testing.T) {
	// The union contains both operands, and area(union) >= max(areas).
	prop := func(x1, y1, w1, h1, x2, y2, w2, h2 int16) bool {
		a := quickRect(x1, y1, w1, h1)
		b := quickRect(x2, y2, w2, h2)
		u := a.Union(b)
		return u.ContainsRect(a) && u.ContainsRect(b) &&
			u.Area() >= a.Area() && u.Area() >= b.Area()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestSubtractInto checks the rectangle-difference decomposition per-pixel
// against set semantics: the parts are disjoint and cover exactly r \ s.
func TestSubtractInto(t *testing.T) {
	cases := []struct{ r, s Rect }{
		{R(0, 0, 10, 10), R(2, 2, 4, 4)},    // hole in the middle
		{R(0, 0, 10, 10), R(0, 0, 10, 10)},  // exact cover → nothing left
		{R(0, 0, 10, 10), R(20, 20, 5, 5)},  // disjoint → r intact
		{R(0, 0, 10, 10), R(-5, -5, 8, 8)},  // overlap top-left corner
		{R(0, 0, 10, 10), R(5, -5, 20, 20)}, // right half shaved off
		{R(0, 0, 10, 10), R(0, 4, 10, 2)},   // horizontal band
		{R(3, 3, 0, 5), R(1, 1, 4, 4)},      // empty r → nothing
		{R(0, 0, 10, 10), R(4, 4, 0, 0)},    // empty s → r intact
	}
	for ci, tc := range cases {
		var buf [4]Rect
		parts := tc.r.SubtractInto(buf[:0], tc.s)
		for y := -8; y < 20; y++ {
			for x := -8; x < 20; x++ {
				want := tc.r.Contains(x, y) && !tc.s.Contains(x, y)
				got := 0
				for _, p := range parts {
					if p.Contains(x, y) {
						got++
					}
				}
				if (want && got != 1) || (!want && got != 0) {
					t.Fatalf("case %d: point (%d,%d): covered %d times, want %v",
						ci, x, y, got, want)
				}
			}
		}
	}
}
