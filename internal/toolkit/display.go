package toolkit

import (
	"sync"
	"time"

	"uniint/internal/gfx"
	"uniint/internal/metrics"
	"uniint/internal/trace"
)

// Render-path instruments. repainted vs full pixels is the damage-clipped
// renderer's win: one-widget updates repaint O(widget) pixels where the
// pre-incremental renderer repainted the whole screen.
var (
	mRenderFrames  = metrics.Default().Counter("render_frames_total")
	mRenderPx      = metrics.Default().Counter("render_px_repainted_total")
	mRenderFullPx  = metrics.Default().Counter("render_px_full_total")
	mRenderVisited = metrics.Default().Counter("render_widgets_visited_total")
	mRenderPainted = metrics.Default().Counter("render_widgets_painted_total")
)

// Display is a window-system session: a framebuffer, a widget tree, a
// focus chain and a pointer grab. It is the unit the UniInt server exports
// over the universal interaction protocol.
//
// Display methods are safe for concurrent use. Widget callbacks (OnClick
// and friends) run with the display lock held; they must not call Display
// methods synchronously — hand work off to another goroutine instead.
//
// Two locks split the session: mu guards the widget tree, damage and input
// state; fbMu guards the framebuffer pixels (always acquired after mu).
// Readers that only need pixels — the encode path shipping rectangles to a
// proxy — take fbMu alone, so a slow encode never blocks the input/event
// path, and painting (which needs both) is damage-bounded and brief.
type Display struct {
	mu      sync.Mutex
	damage  *gfx.Damage
	scratch []gfx.Rect // ping-pongs with the damage tracker via TakeInto
	gen     uint64     // damage generation; see widgetBase.dirtyGen
	notify  bool       // new damage since the last hook firing
	root    Widget
	focus   Widget
	grab    Widget // widget holding the pointer between press and release
	buttons uint8  // last observed pointer button mask
	px, py  int    // last pointer position

	// injectTrace tags damage produced while a traced input event is being
	// injected; renderTrace latches the id of the last traced render until
	// RenderTraceInto hands it to the update pipeline. Both under mu.
	injectTrace uint64
	renderTrace uint64

	fbMu sync.Mutex
	fb   *gfx.Framebuffer

	// damageHooks are run (without the locks) after new damage appears;
	// the UniInt server uses this to answer pending incremental requests.
	hookMu      sync.Mutex
	damageHooks []func()
}

// NewDisplay creates a display with a w×h framebuffer and an empty root.
func NewDisplay(w, h int) *Display {
	d := &Display{
		fb:     gfx.NewFramebuffer(w, h),
		damage: gfx.NewDamage(gfx.R(0, 0, w, h), 16),
		gen:    1,
	}
	root := NewPanel(VBox{Gap: 4, Padding: 4})
	d.SetRoot(root)
	return d
}

// Size returns the framebuffer geometry.
func (d *Display) Size() (w, h int) {
	d.fbMu.Lock()
	defer d.fbMu.Unlock()
	return d.fb.W(), d.fb.H()
}

// SetRoot installs the root widget, sizes it to the display, resets focus
// to the first focusable widget and marks everything dirty — one of the two
// events (with Resize) still paid for with a full-tree repaint.
func (d *Display) SetRoot(w Widget) {
	d.mu.Lock()
	d.root = w
	if w != nil {
		attachTree(w, d)
		w.SetBounds(d.fbBounds())
	}
	d.focus = nil
	d.grab = nil
	d.focusFirstLocked()
	d.damage.AddAll()
	d.notify = true
	d.mu.Unlock()
	d.notifyDamage()
}

// Resize replaces the framebuffer with a w×h one, re-lays-out the root and
// marks everything dirty.
func (d *Display) Resize(w, h int) {
	d.mu.Lock()
	d.fbMu.Lock()
	d.fb = gfx.NewFramebuffer(w, h)
	d.fbMu.Unlock()
	d.damage.Resize(gfx.R(0, 0, w, h))
	if d.root != nil {
		d.root.SetBounds(gfx.R(0, 0, w, h))
	}
	d.notify = true
	d.mu.Unlock()
	d.notifyDamage()
}

// fbBounds returns the framebuffer bounds (callers hold mu but not fbMu).
func (d *Display) fbBounds() gfx.Rect {
	d.fbMu.Lock()
	defer d.fbMu.Unlock()
	return d.fb.Bounds()
}

// Root returns the current root widget.
func (d *Display) Root() Widget {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.root
}

// OnDamage registers fn to run whenever new damage is recorded. fn runs on
// the goroutine that caused the damage, without the display lock.
func (d *Display) OnDamage(fn func()) {
	d.hookMu.Lock()
	defer d.hookMu.Unlock()
	d.damageHooks = append(d.damageHooks, fn)
}

// notifyDamage fires the damage hooks — but only when damage actually
// arrived since the last firing. No-op state echoes from appliances (a
// SetOn(true) on an already-on toggle, a SetText with the same string)
// post no damage and therefore wake nobody.
func (d *Display) notifyDamage() {
	d.mu.Lock()
	fire := d.notify
	d.notify = false
	d.mu.Unlock()
	if !fire {
		return
	}
	d.hookMu.Lock()
	hooks := d.damageHooks
	d.hookMu.Unlock()
	// hooks is only ever appended to under hookMu; iterating the snapshot
	// header without a copy is safe (a hook registered concurrently just
	// misses this round).
	for _, fn := range hooks {
		fn()
	}
}

// addDamage is called by widgets (with the lock already held).
func (d *Display) addDamage(r gfx.Rect) {
	r = r.Intersect(d.damage.ClipBounds())
	if r.Empty() {
		return
	}
	d.damage.Add(r)
	if d.injectTrace != 0 {
		// Damage caused while a traced event is mid-injection belongs to
		// that interaction; the tag rides the damage set to the render.
		d.damage.MarkTrace(d.injectTrace)
	}
	d.notify = true
}

// InvalidateAll marks the whole display dirty, forcing a full repaint on
// the next render (e.g. after an output device switch).
func (d *Display) InvalidateAll() {
	d.mu.Lock()
	d.damage.AddAll()
	d.notify = true
	d.mu.Unlock()
	d.notifyDamage()
}

// Render repaints the damaged parts of the widget tree and returns a copy
// of the refreshed rectangles (nil when nothing changed). Hot paths that
// must not allocate use RenderTraceInto instead.
func (d *Display) Render() []gfx.Rect {
	d.mu.Lock()
	defer d.mu.Unlock()
	rects := d.renderLocked()
	if rects == nil {
		return nil
	}
	out := make([]gfx.Rect, len(rects))
	copy(out, rects)
	return out
}

// RenderTraceInto is Render with caller-owned result storage: the
// refreshed rectangles are appended to dst[:0] and returned, so with a
// recycled dst the steady-state render path performs zero allocations. It
// also returns-and-clears the trace id of the traced interaction whose
// damage this render (or a recent one whose rects are still
// undistributed) repainted — 0 when the repainted damage was untraced.
// One lock acquisition covers both, so the traced path costs the update
// pump nothing extra.
func (d *Display) RenderTraceInto(dst []gfx.Rect) ([]gfx.Rect, uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	rects := d.renderLocked()
	tid := d.renderTrace
	d.renderTrace = 0
	if len(rects) == 0 {
		return dst[:0], tid
	}
	return append(dst[:0], rects...), tid
}

// renderLocked drains the damage set and repaints only widgets whose
// bounds intersect a damage rectangle, with painting clipped to that
// rectangle. Full-tree repaint is just the special case of one damage rect
// covering the screen (SetRoot/Resize). The returned slice is internal
// scratch: valid only until the next render, callers copy under mu.
func (d *Display) renderLocked() []gfx.Rect {
	if d.damage.Empty() {
		return nil
	}
	// Ping-pong two buffers through the tracker: rects was accumulated
	// damage, d.scratch re-arms the tracker, and rects becomes the next
	// re-arm after this render. Nothing escapes mu, so nothing races.
	tid := d.damage.TakeTrace()
	t0 := int64(0)
	if tid != 0 {
		t0 = time.Now().UnixNano()
	}
	rects := d.damage.TakeInto(d.scratch)
	d.scratch = rects
	d.gen++ // every widget's dirty flag is now stale ("clean")
	var visited, painted, px int64
	if d.root != nil {
		d.fbMu.Lock()
		p := gfx.NewPainter(d.fb)
		for _, r := range rects {
			v, n := paintClipped(d.root, p, r)
			visited += int64(v)
			painted += int64(n)
			// Damage rects may partially overlap (the tracker only merges
			// exact covers); overlap pixels are painted once per rect, so
			// summing areas reports pixels *painted*, the actual work.
			px += int64(r.Intersect(d.fb.Bounds()).Area())
		}
		mRenderFullPx.Add(int64(d.fb.Bounds().Area()))
		d.fbMu.Unlock()
	}
	mRenderFrames.Inc()
	mRenderPx.Add(px)
	mRenderVisited.Add(visited)
	mRenderPainted.Add(painted)
	if tid != 0 {
		// This repaint covered a traced interaction's damage: record the
		// render span and latch the id for RenderTraceInto's caller.
		trace.Record(tid, trace.StageRender, t0, time.Now().UnixNano())
		d.renderTrace = tid
	}
	return rects
}

// paintClipped walks the tree under damage rectangle clip: every visible
// widget intersecting clip repaints, restricted to (its bounds ∩ clip).
// Subtrees are not pruned on a parent miss — layouts like Fixed allow
// children outside their parent's bounds — but the per-node cost of a miss
// is a rectangle test, not pixels.
func paintClipped(w Widget, p gfx.Painter, clip gfx.Rect) (visited, painted int) {
	if !w.Visible() {
		return 0, 0
	}
	visited = 1
	if sub := p.In(clip).In(w.Bounds()); !sub.Empty() {
		w.Paint(sub)
		painted = 1
	}
	for _, c := range w.Children() {
		v, n := paintClipped(c, p, clip)
		visited += v
		painted += n
	}
	return visited, painted
}

// Update runs fn with the display lock held and fires damage hooks
// afterwards (only if fn actually damaged something). Any code mutating
// widgets from outside an event callback (e.g. the home application
// reacting to appliance state changes) must go through Update. fn must not
// call other Display methods.
func (d *Display) Update(fn func()) {
	d.mu.Lock()
	fn()
	d.mu.Unlock()
	d.notifyDamage()
}

// WithFramebuffer runs fn with the framebuffer locked. The UniInt server
// uses this to encode update rectangles without copying. Only the pixel
// lock is held: input injection and widget mutation proceed while fn runs,
// renders wait. fn must not call back into the display.
func (d *Display) WithFramebuffer(fn func(fb *gfx.Framebuffer)) {
	d.fbMu.Lock()
	defer d.fbMu.Unlock()
	fn(d.fb)
}

// Snapshot renders pending damage and returns a copy of region r.
func (d *Display) Snapshot(r gfx.Rect) *gfx.Framebuffer {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.renderLocked()
	d.fbMu.Lock()
	defer d.fbMu.Unlock()
	return d.fb.SubImage(r)
}

// Dirty reports whether undrawn damage is pending.
func (d *Display) Dirty() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return !d.damage.Empty()
}

// --- input injection -----------------------------------------------------

// InjectPointer translates a universal pointer state (position + button
// mask) into press/release/move events for the widget tree. It implements
// the pointer half of the universal input event vocabulary.
func (d *Display) InjectPointer(x, y int, buttons uint8) {
	d.InjectPointerTraced(x, y, buttons, 0)
}

// InjectPointerTraced is InjectPointer attributing any damage the
// injection produces to the sampled interaction tid (0 = untraced — the
// plain InjectPointer path, at no extra cost).
func (d *Display) InjectPointerTraced(x, y int, buttons uint8, tid uint64) {
	d.mu.Lock()
	d.injectTrace = tid
	prev := d.buttons
	d.buttons = buttons
	d.px, d.py = x, y

	pressed := buttons&1 != 0 && prev&1 == 0
	released := buttons&1 == 0 && prev&1 != 0

	switch {
	case pressed:
		target := widgetAt(d.root, x, y)
		d.grab = target
		if target != nil {
			if target.Focusable() {
				d.setFocusLocked(target)
			}
			target.HandleMouse(MouseEvent{Kind: MousePress, X: x, Y: y})
		}
	case released:
		if d.grab != nil {
			d.grab.HandleMouse(MouseEvent{Kind: MouseRelease, X: x, Y: y})
			d.grab = nil
		}
	default:
		if d.grab != nil {
			d.grab.HandleMouse(MouseEvent{Kind: MouseMove, X: x, Y: y})
		}
	}
	d.injectTrace = 0
	d.mu.Unlock()
	d.notifyDamage()
}

// InjectKey delivers a universal keyboard event. Tab (and Down) move focus
// forward, Up moves focus backward, everything else goes to the focused
// widget. This keyboard-only navigation path is what keypad devices (cell
// phones, remote controls) are translated into by their input plug-ins.
func (d *Display) InjectKey(down bool, key Key) {
	d.InjectKeyTraced(down, key, 0)
}

// InjectKeyTraced is InjectKey attributing any damage the injection
// produces to the sampled interaction tid (0 = untraced).
func (d *Display) InjectKeyTraced(down bool, key Key, tid uint64) {
	d.mu.Lock()
	d.injectTrace = tid
	ev := KeyEvent{Down: down, Key: key}

	// Focused widget gets the first chance (a slider consumes Left/Right).
	if d.focus != nil && d.focus.HandleKey(ev) {
		d.injectTrace = 0
		d.mu.Unlock()
		d.notifyDamage()
		return
	}
	if down {
		switch key {
		case KeyTab, KeyDown:
			d.moveFocusLocked(+1)
		case KeyUp:
			d.moveFocusLocked(-1)
		}
	}
	d.injectTrace = 0
	d.mu.Unlock()
	d.notifyDamage()
}

// --- focus ---------------------------------------------------------------

// Focus returns the currently focused widget (nil when none).
func (d *Display) Focus() Widget {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.focus
}

func (d *Display) setFocusLocked(w Widget) {
	if d.focus == w {
		return
	}
	if d.focus != nil {
		d.focus.SetFocused(false)
	}
	d.focus = w
	if w != nil {
		w.SetFocused(true)
	}
}

func (d *Display) focusFirstLocked() {
	focusables := collectFocusables(d.root, nil)
	if len(focusables) > 0 {
		d.setFocusLocked(focusables[0])
	} else {
		d.setFocusLocked(nil)
	}
}

func (d *Display) moveFocusLocked(dir int) {
	focusables := collectFocusables(d.root, nil)
	if len(focusables) == 0 {
		d.setFocusLocked(nil)
		return
	}
	idx := -1
	for i, w := range focusables {
		if w == d.focus {
			idx = i
			break
		}
	}
	if idx < 0 {
		d.setFocusLocked(focusables[0])
		return
	}
	idx = (idx + dir + len(focusables)) % len(focusables)
	d.setFocusLocked(focusables[idx])
}
