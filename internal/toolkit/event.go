// Package toolkit is the "traditional graphical user interface system" of
// the reproduction — the stand-in for Java AWT / GTK+ / Qt named by the
// paper. Applications (internal/homeapp) build widget trees against this
// package only; they are completely unaware of which interaction device the
// user holds, which is the paper's third characteristic (C3).
//
// The toolkit renders into a gfx.Framebuffer and consumes keyboard and
// pointer events. The UniInt server (internal/uniserver) ships the
// framebuffer over the universal interaction protocol and injects events
// arriving from the UniInt proxy.
package toolkit

// MouseKind discriminates pointer event types.
type MouseKind int

// Pointer event kinds.
const (
	MousePress MouseKind = iota + 1
	MouseRelease
	MouseMove
)

// MouseEvent is a pointer event in display coordinates.
type MouseEvent struct {
	Kind   MouseKind
	X, Y   int
	Button int // 0 = left; only left is generated by the proxy today
}

// Key is a universal key symbol. Printable ASCII maps to itself; function
// keys use the X11 keysym values, matching the wire protocol so that the
// server can pass codes through without translation.
type Key uint32

// Common key symbols (values equal the rfb package's constants by design).
const (
	KeyBackSpace Key = 0xFF08
	KeyTab       Key = 0xFF09
	KeyEnter     Key = 0xFF0D
	KeyEscape    Key = 0xFF1B
	KeyLeft      Key = 0xFF51
	KeyUp        Key = 0xFF52
	KeyRight     Key = 0xFF53
	KeyDown      Key = 0xFF54
	KeyPageUp    Key = 0xFF55
	KeyPageDown  Key = 0xFF56
	KeySpace     Key = ' '
)

// KeyEvent is a keyboard event.
type KeyEvent struct {
	Down bool
	Key  Key
}
