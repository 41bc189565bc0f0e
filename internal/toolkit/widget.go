package toolkit

import "uniint/internal/gfx"

// Widget is a node of the user-interface tree. All methods are invoked with
// the owning Display's lock held; widgets never need their own locking.
type Widget interface {
	// Bounds returns the widget's rectangle in display coordinates.
	Bounds() gfx.Rect
	// SetBounds positions the widget; containers call this during layout.
	SetBounds(r gfx.Rect)
	// PreferredSize reports the size the widget would like to occupy.
	PreferredSize() (w, h int)
	// Paint draws the widget into g. The painter's clip is (widget bounds ∩
	// damage rect): a widget may be asked to repaint any sub-rectangle of
	// itself, and nothing it draws can land outside its own bounds. Parents
	// paint before children.
	Paint(g gfx.Painter)
	// Children returns the widget's children (nil for leaves).
	Children() []Widget
	// HandleMouse processes a pointer event already known to hit this
	// widget; returns true when consumed.
	HandleMouse(ev MouseEvent) bool
	// HandleKey processes a keyboard event delivered to the focused
	// widget; returns true when consumed.
	HandleKey(ev KeyEvent) bool
	// Focusable reports whether the widget participates in keyboard focus
	// traversal (the navigation path used by keypad-only devices).
	Focusable() bool
	// SetFocused is called by the display as focus moves.
	SetFocused(bool)
	// Visible reports whether the widget should be painted and hit.
	Visible() bool
	// attach wires the widget (and subtree) to a display for invalidation.
	attach(d *Display)
}

// widgetBase carries the state shared by every widget. Concrete widgets
// embed it (unexported, so the embedding is invisible in the public API).
type widgetBase struct {
	bounds  gfx.Rect
	display *Display
	hidden  bool
	focused bool
	enabled bool

	// dirtyGen is the display damage generation in which this widget last
	// posted its full bounds as damage — the per-widget dirty flag. While
	// it matches the display's current generation, further Invalidate
	// calls are no-ops: the widget's area is already fully covered by
	// pending damage. The renderer bumps the generation when it drains
	// damage, which implicitly "cleans" every widget at once.
	dirtyGen uint64
}

func newWidgetBase() widgetBase { return widgetBase{enabled: true} }

// Bounds returns the widget's rectangle in display coordinates.
func (b *widgetBase) Bounds() gfx.Rect { return b.bounds }

// SetBounds positions the widget and invalidates both old and new areas.
func (b *widgetBase) SetBounds(r gfx.Rect) {
	if b.bounds == r {
		return
	}
	old := b.bounds
	b.bounds = r
	b.invalidate(old)
	b.invalidate(r)
	b.markDirty()
}

// Children returns nil; containers override.
func (b *widgetBase) Children() []Widget { return nil }

// HandleMouse ignores the event; interactive widgets override.
func (b *widgetBase) HandleMouse(MouseEvent) bool { return false }

// HandleKey ignores the event; interactive widgets override.
func (b *widgetBase) HandleKey(KeyEvent) bool { return false }

// Focusable is false by default; interactive widgets override.
func (b *widgetBase) Focusable() bool { return false }

// SetFocused records focus state and repaints.
func (b *widgetBase) SetFocused(f bool) {
	if b.focused == f {
		return
	}
	b.focused = f
	b.Invalidate()
}

// Visible reports whether the widget should be painted.
func (b *widgetBase) Visible() bool { return !b.hidden }

// SetVisible shows or hides the widget.
func (b *widgetBase) SetVisible(v bool) {
	if b.hidden == !v {
		return
	}
	b.hidden = !v
	b.Invalidate()
}

// Enabled reports whether the widget accepts input.
func (b *widgetBase) Enabled() bool { return b.enabled }

// SetEnabled toggles input acceptance.
func (b *widgetBase) SetEnabled(v bool) {
	if b.enabled == v {
		return
	}
	b.enabled = v
	b.Invalidate()
}

// Invalidate marks the widget's area as needing repaint. Repeated calls
// between renders are free: once the widget's bounds are in the pending
// damage set, further invalidations short-circuit on the dirty flag.
func (b *widgetBase) Invalidate() {
	if b.display == nil {
		return
	}
	if b.dirtyGen == b.display.gen {
		return // bounds already fully damaged since the last render
	}
	b.dirtyGen = b.display.gen
	b.display.addDamage(b.bounds)
}

func (b *widgetBase) invalidate(r gfx.Rect) {
	if b.display != nil {
		b.display.addDamage(r)
	}
}

// markDirty records that the widget's current bounds are covered by
// pending damage without posting anything (callers already did).
func (b *widgetBase) markDirty() {
	if b.display != nil {
		b.dirtyGen = b.display.gen
	}
}

func (b *widgetBase) attach(d *Display) {
	b.display = d
	b.dirtyGen = 0
}

// attachTree wires w and all descendants to d.
func attachTree(w Widget, d *Display) {
	w.attach(d)
	for _, c := range w.Children() {
		attachTree(c, d)
	}
}

// widgetAt returns the deepest visible widget containing (x, y), or nil.
func widgetAt(w Widget, x, y int) Widget {
	if w == nil || !w.Visible() || !w.Bounds().Contains(x, y) {
		return nil
	}
	children := w.Children()
	for i := len(children) - 1; i >= 0; i-- { // later children paint on top
		if hit := widgetAt(children[i], x, y); hit != nil {
			return hit
		}
	}
	return w
}

// collectFocusables appends, in paint order, every visible focusable widget.
func collectFocusables(w Widget, out []Widget) []Widget {
	if w == nil || !w.Visible() {
		return out
	}
	if w.Focusable() {
		out = append(out, w)
	}
	for _, c := range w.Children() {
		out = collectFocusables(c, out)
	}
	return out
}
