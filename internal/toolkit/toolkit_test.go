package toolkit

import (
	"testing"

	"uniint/internal/gfx"
)

func newTestDisplay(t *testing.T) *Display {
	t.Helper()
	return NewDisplay(200, 150)
}

func TestDisplayInitialRender(t *testing.T) {
	d := newTestDisplay(t)
	rects := d.Render()
	if len(rects) == 0 {
		t.Fatal("fresh display should be fully damaged")
	}
	if rects[0] != gfx.R(0, 0, 200, 150) {
		t.Errorf("initial damage = %+v", rects[0])
	}
	if again := d.Render(); again != nil {
		t.Errorf("second render should be clean, got %+v", again)
	}
}

func TestButtonClickByPointer(t *testing.T) {
	d := newTestDisplay(t)
	clicks := 0
	btn := NewButton("Press", func() { clicks++ })
	root := NewPanel(VBox{Gap: 4, Padding: 4})
	root.Add(btn)
	d.SetRoot(root)
	d.Render()

	b := btn.Bounds()
	if b.Empty() {
		t.Fatal("button was not laid out")
	}
	click(d, b.X+b.W/2, b.Y+b.H/2)
	if clicks != 1 {
		t.Fatalf("clicks = %d, want 1", clicks)
	}
	// Press inside, release outside: no click.
	d.InjectPointer(b.X+1, b.Y+1, 1)
	d.InjectPointer(b.X-50, b.Y-50, 0)
	if clicks != 1 {
		t.Fatalf("release outside should not fire, clicks = %d", clicks)
	}
}

func TestButtonClickByKeyboard(t *testing.T) {
	d := newTestDisplay(t)
	clicks := 0
	btn := NewButton("OK", func() { clicks++ })
	root := NewPanel(VBox{})
	root.Add(btn)
	d.SetRoot(root)

	if d.Focus() != Widget(btn) {
		t.Fatal("first focusable should receive focus")
	}
	d.InjectKey(true, KeyEnter)
	d.InjectKey(false, KeyEnter)
	if clicks != 1 {
		t.Fatalf("keyboard clicks = %d, want 1", clicks)
	}
	d.InjectKey(true, KeySpace)
	if clicks != 2 {
		t.Fatalf("space clicks = %d, want 2", clicks)
	}
}

func TestFocusTraversal(t *testing.T) {
	d := newTestDisplay(t)
	b1 := NewButton("1", nil)
	b2 := NewButton("2", nil)
	b3 := NewButton("3", nil)
	root := NewPanel(VBox{})
	root.Add(b1, b2, b3)
	d.SetRoot(root)

	if d.Focus() != Widget(b1) {
		t.Fatal("focus should start at first widget")
	}
	d.InjectKey(true, KeyTab)
	if d.Focus() != Widget(b2) {
		t.Fatal("tab should advance focus")
	}
	d.InjectKey(true, KeyDown)
	if d.Focus() != Widget(b3) {
		t.Fatal("down should advance focus")
	}
	d.InjectKey(true, KeyTab)
	if d.Focus() != Widget(b1) {
		t.Fatal("focus should wrap around")
	}
	d.InjectKey(true, KeyUp)
	if d.Focus() != Widget(b3) {
		t.Fatal("up should move focus backward (wrapping)")
	}
}

func TestFocusSkipsInvisibleAndDisabled(t *testing.T) {
	d := newTestDisplay(t)
	b1 := NewButton("1", nil)
	b2 := NewButton("2", nil)
	b3 := NewButton("3", nil)
	b2.SetVisible(false)
	b3.SetEnabled(false)
	root := NewPanel(VBox{})
	root.Add(b1, b2, b3)
	d.SetRoot(root)

	d.InjectKey(true, KeyTab)
	if d.Focus() != Widget(b1) {
		t.Fatalf("focus should stay on the only eligible widget")
	}
}

func TestToggleFlip(t *testing.T) {
	d := newTestDisplay(t)
	var last bool
	fired := 0
	tg := NewToggle("Power", false, func(on bool) { last = on; fired++ })
	root := NewPanel(VBox{})
	root.Add(tg)
	d.SetRoot(root)
	d.Render()

	b := tg.Bounds()
	click(d, b.X+2, b.Y+2)
	if !tg.On() || !last || fired != 1 {
		t.Fatalf("after click: on=%v last=%v fired=%d", tg.On(), last, fired)
	}
	// Programmatic set must not fire the callback.
	tg.SetOn(false)
	if fired != 1 {
		t.Fatalf("SetOn fired the callback")
	}
	// Keyboard flip.
	d.InjectKey(true, KeyEnter)
	if !tg.On() || fired != 2 {
		t.Fatalf("keyboard flip: on=%v fired=%d", tg.On(), fired)
	}
}

func TestSliderKeyboardAndPointer(t *testing.T) {
	d := newTestDisplay(t)
	var got []int
	s := NewSlider("Vol", 0, 10, 5, func(v int) { got = append(got, v) })
	root := NewPanel(VBox{})
	root.Add(s)
	d.SetRoot(root)
	d.Render()

	d.InjectKey(true, KeyRight)
	d.InjectKey(true, KeyRight)
	d.InjectKey(true, KeyLeft)
	if s.Value() != 6 {
		t.Fatalf("value = %d, want 6", s.Value())
	}
	if len(got) != 3 {
		t.Fatalf("changes = %v", got)
	}
	// Clamping at the edges.
	for i := 0; i < 20; i++ {
		d.InjectKey(true, KeyRight)
	}
	if s.Value() != 10 {
		t.Fatalf("value should clamp at max, got %d", s.Value())
	}
	// Pointer: click at the far right of the track.
	tr := s.track()
	click(d, tr.MaxX()-1, tr.Y+1)
	if s.Value() != 10 {
		t.Fatalf("pointer at track end should keep max, got %d", s.Value())
	}
	click(d, tr.X, tr.Y+1)
	if s.Value() != 0 {
		t.Fatalf("pointer at track start should give min, got %d", s.Value())
	}
}

func TestSliderProgrammaticSetDoesNotFire(t *testing.T) {
	fired := 0
	s := NewSlider("x", 0, 100, 0, func(int) { fired++ })
	s.SetValue(55)
	if s.Value() != 55 || fired != 0 {
		t.Fatalf("value=%d fired=%d", s.Value(), fired)
	}
	s.SetValue(-10)
	if s.Value() != 0 {
		t.Fatalf("clamp low failed: %d", s.Value())
	}
	s.SetValue(1000)
	if s.Value() != 100 {
		t.Fatalf("clamp high failed: %d", s.Value())
	}
}

func TestProgressBarClamp(t *testing.T) {
	p := NewProgressBar(150)
	if p.Value() != 100 {
		t.Errorf("value = %d", p.Value())
	}
	p.SetValue(-5)
	if p.Value() != 0 {
		t.Errorf("value = %d", p.Value())
	}
}

func TestLabelRendering(t *testing.T) {
	d := newTestDisplay(t)
	l := NewLabel("hello")
	root := NewPanel(VBox{})
	root.Add(l)
	d.SetRoot(root)
	d.Render()
	// The label area must contain some non-background pixels.
	snap := d.Snapshot(l.Bounds())
	found := false
	for _, c := range snap.Pix() {
		if c == gfx.Black {
			found = true
			break
		}
	}
	if !found {
		t.Error("label text not rendered")
	}
	l.SetText("changed")
	if !d.Dirty() {
		t.Error("SetText should damage the display")
	}
}

func TestNestedPanelsHitTesting(t *testing.T) {
	d := newTestDisplay(t)
	outer := NewPanel(VBox{Gap: 2, Padding: 2})
	inner := NewPanel(HBox{Gap: 2, Padding: 2})
	clicks := 0
	btn := NewButton("deep", func() { clicks++ })
	inner.Add(btn)
	outer.Add(NewLabel("header"), inner)
	d.SetRoot(outer)
	d.Render()

	b := btn.Bounds()
	if b.Empty() {
		t.Fatal("nested button not laid out")
	}
	click(d, b.X+1, b.Y+1)
	if clicks != 1 {
		t.Fatalf("nested click = %d", clicks)
	}
}

func TestGridLayoutGeometry(t *testing.T) {
	d := NewDisplay(300, 200)
	grid := NewPanel(Grid{Cols: 2, Gap: 4, Padding: 4})
	buttons := make([]*Button, 5)
	for i := range buttons {
		buttons[i] = NewButton("B", nil)
		grid.Add(buttons[i])
	}
	d.SetRoot(grid)
	d.Render()
	// Row 0: buttons 0 and 1 share a y coordinate; button 2 sits below.
	if buttons[0].Bounds().Y != buttons[1].Bounds().Y {
		t.Error("row members should align")
	}
	if buttons[2].Bounds().Y <= buttons[0].Bounds().Y {
		t.Error("next row should be below")
	}
	if buttons[0].Bounds().X >= buttons[1].Bounds().X {
		t.Error("columns should advance left to right")
	}
	// No overlaps among the five buttons.
	for i := 0; i < len(buttons); i++ {
		for j := i + 1; j < len(buttons); j++ {
			if buttons[i].Bounds().Overlaps(buttons[j].Bounds()) {
				t.Errorf("buttons %d and %d overlap", i, j)
			}
		}
	}
}

func TestDamageHookFires(t *testing.T) {
	d := newTestDisplay(t)
	btn := NewButton("x", nil)
	root := NewPanel(VBox{})
	root.Add(btn)
	d.SetRoot(root)
	d.Render()

	fired := 0
	d.OnDamage(func() { fired++ })
	click(d, btn.Bounds().X+1, btn.Bounds().Y+1)
	if fired == 0 {
		t.Fatal("damage hook should fire on interaction")
	}
}

func TestHiddenWidgetNotHit(t *testing.T) {
	d := newTestDisplay(t)
	clicks := 0
	btn := NewButton("x", func() { clicks++ })
	root := NewPanel(VBox{})
	root.Add(btn)
	d.SetRoot(root)
	d.Render()
	b := btn.Bounds()
	btn.SetVisible(false)
	click(d, b.X+1, b.Y+1)
	if clicks != 0 {
		t.Fatal("hidden widget should not receive clicks")
	}
}

func BenchmarkRenderControlPanel(b *testing.B) {
	d := NewDisplay(640, 480)
	root := NewPanel(Grid{Cols: 2, Gap: 4, Padding: 6})
	for i := 0; i < 8; i++ {
		p := NewPanel(VBox{Gap: 2, Padding: 4})
		p.SetTitle("Appliance")
		p.Add(NewToggle("Power", false, nil),
			NewSlider("Volume", 0, 100, 50, nil),
			NewButton("Play", nil))
		root.Add(p)
	}
	d.SetRoot(root)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.WithFramebuffer(func(fb *gfx.Framebuffer) {}) // keep lock pattern hot
		d.Render()
		// Re-damage everything each iteration.
		d.SetRoot(root)
	}
}

// click presses and releases the pointer at (x, y), as a pointing device
// does through InjectPointer.
func click(d *Display, x, y int) {
	d.InjectPointer(x, y, 1)
	d.InjectPointer(x, y, 0)
}
