package toolkit

import (
	"testing"

	"uniint/internal/gfx"
)

func TestDisplayAccessors(t *testing.T) {
	d := NewDisplay(120, 80)
	if w, h := d.Size(); w != 120 || h != 80 {
		t.Errorf("size = %dx%d", w, h)
	}
	if d.Root() == nil {
		t.Error("fresh display should have a root panel")
	}
	ran := false
	d.WithFramebuffer(func(fb *gfx.Framebuffer) {
		ran = fb.W() == 120
	})
	if !ran {
		t.Error("WithFramebuffer did not expose the framebuffer")
	}
}

func TestDisplayUpdateFiresDamageHooks(t *testing.T) {
	d := NewDisplay(100, 100)
	lbl := NewLabel("a")
	root := NewPanel(VBox{})
	root.Add(lbl)
	d.SetRoot(root)
	d.Render()

	fired := 0
	d.OnDamage(func() { fired++ })
	d.Update(func() { lbl.SetText("b") })
	if fired != 1 {
		t.Errorf("damage hooks fired %d times", fired)
	}
	if !d.Dirty() {
		t.Error("update should leave the display dirty")
	}
}

func TestTitledPanelRendersTitle(t *testing.T) {
	d := NewDisplay(200, 100)
	p := NewPanel(VBox{Padding: 4})
	p.SetTitle("Living TV")
	p.SetBackground(gfx.White)
	p.Add(NewLabel("content"))
	d.SetRoot(p)
	d.Render()
	if p.Title() != "Living TV" {
		t.Errorf("title = %q", p.Title())
	}
	// The title area must contain dark (text) pixels over the light
	// background.
	snap := d.Snapshot(gfx.R(0, 0, 200, gfx.GlyphH))
	dark := 0
	for _, c := range snap.Pix() {
		if c == gfx.Black {
			dark++
		}
	}
	if dark == 0 {
		t.Error("title text not rendered")
	}
	// A titled panel reserves vertical space for the title.
	_, hPlain := NewPanel(VBox{Padding: 4}).PreferredSize()
	_, hTitled := p.PreferredSize()
	if hTitled <= hPlain {
		t.Error("titled panel should be taller")
	}
}

func TestFixedLayoutKeepsManualBounds(t *testing.T) {
	d := NewDisplay(200, 200)
	p := NewPanel(Fixed{})
	b := NewButton("here", nil)
	p.Add(b)
	b.SetBounds(gfx.R(42, 17, 60, 20))
	d.SetRoot(p)
	d.Render()
	if b.Bounds() != gfx.R(42, 17, 60, 20) {
		t.Errorf("fixed layout moved the widget: %+v", b.Bounds())
	}
	// Preferred reports the bounding box.
	w, h := Fixed{}.Preferred(p.Children())
	if w != 102 || h != 37 {
		t.Errorf("fixed preferred = %dx%d", w, h)
	}
}

func TestLayoutPreferredSizes(t *testing.T) {
	mk := func() []Widget {
		return []Widget{NewButton("aa", nil), NewButton("bbbb", nil)}
	}
	// VBox: width = max, height = sum + gaps.
	vw, vh := VBox{Gap: 3, Padding: 2}.Preferred(mk())
	children := mk()
	w1, h1 := children[0].PreferredSize()
	w2, h2 := children[1].PreferredSize()
	if vw != max(w1, w2)+4 || vh != h1+h2+3+4 {
		t.Errorf("vbox preferred = %dx%d", vw, vh)
	}
	// HBox: width = sum + gaps, height = max.
	hw, hh := HBox{Gap: 3, Padding: 2}.Preferred(mk())
	if hw != w1+w2+3+4 || hh != max(h1, h2)+4 {
		t.Errorf("hbox preferred = %dx%d", hw, hh)
	}
	// Grid with one column stacks rows.
	gw, gh := Grid{Cols: 1, Gap: 2}.Preferred(mk())
	if gw < max(w1, w2) || gh < h1+h2 {
		t.Errorf("grid preferred = %dx%d", gw, gh)
	}
	// Invisible children are excluded everywhere.
	kids := mk()
	kids[1].(*Button).SetVisible(false)
	vw2, _ := VBox{Padding: 2}.Preferred(kids)
	if vw2 != w1+4 {
		t.Errorf("invisible child counted: %d", vw2)
	}
}

func TestLabelAlignmentAndColor(t *testing.T) {
	d := NewDisplay(120, 30)
	l := NewLabel("x")
	l.SetColor(gfx.Red)
	root := NewPanel(VBox{})
	root.Add(l)
	d.SetRoot(root)
	d.Render()
	if l.Text() != "x" {
		t.Errorf("text = %q", l.Text())
	}
	findRed := func() (minX, maxX int) {
		minX, maxX = 1<<30, -1
		d.WithFramebuffer(func(fb *gfx.Framebuffer) {
			for y := 0; y < 30; y++ {
				for x := 0; x < 120; x++ {
					if fb.At(x, y) == gfx.Red {
						if x < minX {
							minX = x
						}
						if x > maxX {
							maxX = x
						}
					}
				}
			}
		})
		return minX, maxX
	}
	leftMin, _ := findRed()

	l.SetAlign(AlignRight)
	d.Render()
	_, rightMax := findRed()
	if rightMax <= leftMin {
		t.Error("right-aligned text should sit to the right of left-aligned")
	}
	l.SetAlign(AlignCenter)
	d.Render()
	cMin, cMax := findRed()
	mid := (cMin + cMax) / 2
	if mid < l.Bounds().W/2-10 || mid > l.Bounds().W/2+10 {
		t.Errorf("centered text midpoint = %d of %d", mid, l.Bounds().W)
	}
}

func TestSliderStepAndProgressPaint(t *testing.T) {
	d := NewDisplay(200, 60)
	s := NewSlider("T", 0, 100, 50, nil)
	s.SetStep(10)
	s.SetStep(0) // ignored
	pb := NewProgressBar(50)
	root := NewPanel(VBox{Gap: 2})
	root.Add(s, pb)
	d.SetRoot(root)
	d.Render()

	d.InjectKey(true, KeyRight)
	if s.Value() != 60 {
		t.Errorf("step-10 right = %d", s.Value())
	}
	// Progress bar paints a blue fill proportional to value.
	snap := d.Snapshot(pb.Bounds())
	blue := 0
	for _, c := range snap.Pix() {
		if c == gfx.Blue {
			blue++
		}
	}
	total := pb.Bounds().Area()
	if blue < total*30/100 || blue > total*60/100 {
		t.Errorf("50%% bar painted %d of %d blue", blue, total)
	}
}

func TestButtonAndToggleLabels(t *testing.T) {
	b := NewButton("play", nil)
	if b.Label() != "play" {
		t.Errorf("label = %q", b.Label())
	}
	b.SetLabel("stop")
	b.SetLabel("stop") // no-op path
	if b.Label() != "stop" {
		t.Errorf("label = %q", b.Label())
	}
	tg := NewToggle("pwr", true, nil)
	tg.SetLabel("power")
	if !tg.On() {
		t.Error("initial state lost")
	}
	if !tg.Enabled() {
		t.Error("widgets start enabled")
	}
}

func TestDisabledWidgetRejectsInput(t *testing.T) {
	d := NewDisplay(100, 50)
	clicks := 0
	b := NewButton("x", func() { clicks++ })
	root := NewPanel(VBox{})
	root.Add(b)
	d.SetRoot(root)
	d.Render()
	b.SetEnabled(false)
	bb := b.Bounds()
	d.Click(bb.X+2, bb.Y+2)
	d.InjectKey(true, KeyEnter)
	if clicks != 0 {
		t.Errorf("disabled button fired %d times", clicks)
	}
	if b.Focusable() {
		t.Error("disabled button should not be focusable")
	}
}

func TestGridDefaultsToOneColumn(t *testing.T) {
	g := Grid{} // Cols 0 → treated as 1
	kids := []Widget{NewButton("a", nil), NewButton("b", nil)}
	g.Arrange(gfx.R(0, 0, 100, 100), kids)
	if kids[0].Bounds().Y == kids[1].Bounds().Y {
		t.Error("one-column grid should stack vertically")
	}
	if w, h := g.Preferred(nil); w != 0 || h != 0 {
		t.Errorf("empty grid preferred = %dx%d", w, h)
	}
}
