package toolkit

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"uniint/internal/gfx"
)

// fullRepaint paints the display's tree from scratch into a fresh
// framebuffer — the oracle the incremental renderer must match.
func fullRepaint(d *Display) *gfx.Framebuffer {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.fbMu.Lock()
	w, h := d.fb.W(), d.fb.H()
	d.fbMu.Unlock()
	ref := gfx.NewFramebuffer(w, h)
	if d.root != nil {
		paintClipped(d.root, gfx.NewPainter(ref), ref.Bounds())
	}
	return ref
}

// randTree builds a random widget tree and returns every mutable leaf.
type randLeaves struct {
	labels   []*Label
	buttons  []*Button
	toggles  []*Toggle
	sliders  []*Slider
	progress []*ProgressBar
	panels   []*Panel
	widgets  []Widget
}

func buildRandTree(rng *rand.Rand, depth int, leaves *randLeaves) Widget {
	if depth > 0 && rng.Intn(3) == 0 {
		var layout Layout
		switch rng.Intn(4) {
		case 0:
			layout = VBox{Gap: rng.Intn(4), Padding: rng.Intn(4)}
		case 1:
			layout = HBox{Gap: rng.Intn(4), Padding: rng.Intn(4)}
		case 2:
			layout = Grid{Cols: 1 + rng.Intn(3), Gap: rng.Intn(3), Padding: rng.Intn(3)}
		default:
			layout = Fixed{}
		}
		p := NewPanel(layout)
		if rng.Intn(2) == 0 {
			p.SetTitle(fmt.Sprintf("Group %d", rng.Intn(10)))
		}
		n := 1 + rng.Intn(4)
		for i := 0; i < n; i++ {
			p.Add(buildRandTree(rng, depth-1, leaves))
		}
		leaves.panels = append(leaves.panels, p)
		leaves.widgets = append(leaves.widgets, p)
		return p
	}
	var w Widget
	switch rng.Intn(5) {
	case 0:
		l := NewLabel(fmt.Sprintf("label %d", rng.Intn(100)))
		leaves.labels = append(leaves.labels, l)
		w = l
	case 1:
		b := NewButton(fmt.Sprintf("btn %d", rng.Intn(100)), nil)
		leaves.buttons = append(leaves.buttons, b)
		w = b
	case 2:
		t := NewToggle(fmt.Sprintf("tgl %d", rng.Intn(100)), rng.Intn(2) == 0, nil)
		leaves.toggles = append(leaves.toggles, t)
		w = t
	case 3:
		s := NewSlider(fmt.Sprintf("sld %d", rng.Intn(100)), 0, 100, rng.Intn(101), nil)
		leaves.sliders = append(leaves.sliders, s)
		w = s
	default:
		p := NewProgressBar(rng.Intn(101))
		leaves.progress = append(leaves.progress, p)
		w = p
	}
	leaves.widgets = append(leaves.widgets, w)
	return w
}

// mutate applies one random widget mutation or input event.
func mutate(rng *rand.Rand, d *Display, lv *randLeaves) {
	w, h := d.Size()
	switch rng.Intn(12) {
	case 0:
		if len(lv.labels) > 0 {
			l := lv.labels[rng.Intn(len(lv.labels))]
			d.Update(func() {
				l.SetText(fmt.Sprintf("label %d", rng.Intn(8)))
				l.SetAlign(Align(rng.Intn(3)))
			})
		}
	case 1:
		if len(lv.labels) > 0 {
			l := lv.labels[rng.Intn(len(lv.labels))]
			colors := []gfx.Color{gfx.Black, gfx.Red, gfx.Navy}
			d.Update(func() { l.SetColor(colors[rng.Intn(len(colors))]) })
		}
	case 2:
		if len(lv.toggles) > 0 {
			t := lv.toggles[rng.Intn(len(lv.toggles))]
			d.Update(func() { t.SetOn(rng.Intn(2) == 0) })
		}
	case 3:
		if len(lv.sliders) > 0 {
			s := lv.sliders[rng.Intn(len(lv.sliders))]
			d.Update(func() { s.SetValue(rng.Intn(101)) })
		}
	case 4:
		if len(lv.progress) > 0 {
			p := lv.progress[rng.Intn(len(lv.progress))]
			d.Update(func() { p.SetValue(rng.Intn(101)) })
		}
	case 5:
		if len(lv.buttons) > 0 {
			b := lv.buttons[rng.Intn(len(lv.buttons))]
			d.Update(func() { b.SetLabel(fmt.Sprintf("btn %d", rng.Intn(8))) })
		}
	case 6:
		if len(lv.panels) > 0 {
			p := lv.panels[rng.Intn(len(lv.panels))]
			colors := []gfx.Color{gfx.LightGray, gfx.White, gfx.Gray}
			d.Update(func() { p.SetBackground(colors[rng.Intn(len(colors))]) })
		}
	case 7:
		wdg := lv.widgets[rng.Intn(len(lv.widgets))]
		d.Update(func() {
			if base, ok := wdg.(interface{ SetVisible(bool) }); ok {
				base.SetVisible(rng.Intn(4) != 0) // mostly visible
			}
		})
	case 8:
		wdg := lv.widgets[rng.Intn(len(lv.widgets))]
		d.Update(func() {
			if base, ok := wdg.(interface{ SetEnabled(bool) }); ok {
				base.SetEnabled(rng.Intn(4) != 0)
			}
		})
	case 9:
		d.InjectPointer(rng.Intn(w), rng.Intn(h), 1)
		d.InjectPointer(rng.Intn(w), rng.Intn(h), 0)
	case 10:
		keys := []Key{KeyTab, KeyUp, KeyDown, KeyLeft, KeyRight, KeyEnter, KeySpace}
		d.InjectKey(true, keys[rng.Intn(len(keys))])
	default:
		// No-op echo: re-deliver current state; must post no damage.
		if len(lv.toggles) > 0 {
			t := lv.toggles[rng.Intn(len(lv.toggles))]
			d.Update(func() { t.SetOn(t.On()) })
		}
	}
}

// TestIncrementalRenderMatchesFullRepaint is the equivalence property the
// damage-clipped renderer must hold: after any sequence of widget updates
// and input events, rendering only the damaged rectangles leaves the
// framebuffer byte-identical to a from-scratch full repaint.
func TestIncrementalRenderMatchesFullRepaint(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			w, h := 80+rng.Intn(400), 60+rng.Intn(300)
			d := NewDisplay(w, h)
			var lv randLeaves
			root := NewPanel(VBox{Gap: 2, Padding: 3})
			n := 2 + rng.Intn(4)
			for i := 0; i < n; i++ {
				root.Add(buildRandTree(rng, 2, &lv))
			}
			lv.panels = append(lv.panels, root)
			d.SetRoot(root)
			d.Render()

			for step := 0; step < 120; step++ {
				mutate(rng, d, &lv)
				if rng.Intn(3) == 0 {
					d.Render() // interleave partial drains
				}
				if step%10 == 9 {
					d.Render()
					ref := fullRepaint(d)
					equal := false
					d.WithFramebuffer(func(fb *gfx.Framebuffer) { equal = fb.Equal(ref) })
					if !equal {
						t.Fatalf("step %d: incremental framebuffer diverged from full repaint (diff %+v)",
							step, diffAgainst(d, ref))
					}
				}
			}
		})
	}
}

func diffAgainst(d *Display, ref *gfx.Framebuffer) gfx.Rect {
	var r gfx.Rect
	d.WithFramebuffer(func(fb *gfx.Framebuffer) { r = fb.DiffRect(ref) })
	return r
}

// TestRenderRepaintsOnlyDamage pins the O(widget) contract: a one-toggle
// update must repaint rectangles totalling far less than the screen.
func TestRenderRepaintsOnlyDamage(t *testing.T) {
	d := NewDisplay(640, 480)
	root := NewPanel(Grid{Cols: 2, Gap: 4, Padding: 6})
	toggles := make([]*Toggle, 12)
	for i := range toggles {
		toggles[i] = NewToggle(fmt.Sprintf("Power %d", i), false, nil)
		root.Add(toggles[i])
	}
	d.SetRoot(root)
	d.Render()

	d.Update(func() { toggles[3].SetOn(true) })
	rects := d.Render()
	if len(rects) == 0 {
		t.Fatal("no damage after toggle flip")
	}
	area := 0
	for _, r := range rects {
		area += r.Area()
		if !r.Overlaps(toggles[3].Bounds()) {
			t.Errorf("damage rect %+v does not touch the flipped toggle", r)
		}
	}
	if screen := 640 * 480; area > screen/10 {
		t.Fatalf("one-widget update repainted %d px of %d — not incremental", area, screen)
	}
}

// TestNoopUpdatesPostNoDamage is the state-echo satellite: setters handed
// the value a widget already holds must not damage the display or wake
// damage hooks.
func TestNoopUpdatesPostNoDamage(t *testing.T) {
	d := NewDisplay(200, 150)
	lbl := NewLabel("ready")
	tg := NewToggle("Power", true, nil)
	sl := NewSlider("Vol", 0, 100, 40, nil)
	pb := NewProgressBar(70)
	pan := NewPanel(VBox{})
	pan.SetTitle("Box")
	pan.SetBackground(gfx.White)
	pan.Add(lbl, tg, sl, pb)
	d.SetRoot(pan)
	d.Render()

	fired := 0
	d.OnDamage(func() { fired++ })
	d.Update(func() {
		lbl.SetText("ready")
		lbl.SetAlign(AlignLeft)
		lbl.SetColor(gfx.Black)
		tg.SetOn(true)
		tg.SetLabel("Power")
		sl.SetValue(40)
		pb.SetValue(70)
		pan.SetTitle("Box")
		pan.SetBackground(gfx.White)
	})
	if fired != 0 {
		t.Fatalf("no-op state echo fired %d damage hooks", fired)
	}
	if d.Dirty() {
		t.Fatal("no-op state echo left the display dirty")
	}
	// A real change still fires exactly once per Update batch.
	d.Update(func() { tg.SetOn(false) })
	if fired != 1 {
		t.Fatalf("real change fired %d hooks, want 1", fired)
	}
}

// TestRepeatedInvalidateCoalesces pins the per-widget dirty flag: N
// invalidations between renders produce bounded damage, and the widget can
// invalidate again after a render.
func TestRepeatedInvalidateCoalesces(t *testing.T) {
	d := NewDisplay(200, 150)
	lbl := NewLabel("x")
	root := NewPanel(VBox{})
	root.Add(lbl)
	d.SetRoot(root)
	d.Render()

	for i := 0; i < 100; i++ {
		d.Update(func() { lbl.SetText(fmt.Sprintf("t%d", i)) })
	}
	rects := d.Render()
	if len(rects) != 1 {
		t.Fatalf("100 updates of one label produced %d damage rects", len(rects))
	}
	d.Update(func() { lbl.SetText("after") })
	if !d.Dirty() {
		t.Fatal("widget could not re-invalidate after a render")
	}
}

// TestEncodeDoesNotBlockInput pins the split-lock contract: while a reader
// holds the framebuffer (a slow encode in flight), input injection and
// widget mutation must still complete.
func TestEncodeDoesNotBlockInput(t *testing.T) {
	d := NewDisplay(200, 150)
	tg := NewToggle("Power", false, nil)
	root := NewPanel(VBox{})
	root.Add(tg)
	d.SetRoot(root)
	d.Render()

	entered := make(chan struct{})
	release := make(chan struct{})
	go d.WithFramebuffer(func(fb *gfx.Framebuffer) {
		close(entered)
		<-release
	})
	<-entered

	done := make(chan struct{})
	go func() {
		b := tg.Bounds()
		click(d, b.X+2, b.Y+2)
		d.InjectKey(true, KeyTab)
		d.Update(func() { tg.SetLabel("still responsive") })
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("input path blocked while the framebuffer was held for encoding")
	}
	close(release)
	if !tg.On() {
		t.Fatal("click was lost")
	}
}

// TestInvalidateAllForcesFullRepaint exercises the full-damage path.
func TestInvalidateAllForcesFullRepaint(t *testing.T) {
	d := NewDisplay(100, 80)
	d.Render()
	d.InvalidateAll()
	rects := d.Render()
	if len(rects) != 1 || rects[0] != gfx.R(0, 0, 100, 80) {
		t.Fatalf("InvalidateAll damage = %+v", rects)
	}
}

// TestResize rebuilds the framebuffer and re-lays-out the tree.
func TestResize(t *testing.T) {
	d := NewDisplay(100, 80)
	lbl := NewLabel("hi")
	root := NewPanel(VBox{Padding: 2})
	root.Add(lbl)
	d.SetRoot(root)
	d.Render()

	d.Resize(320, 240)
	if w, h := d.Size(); w != 320 || h != 240 {
		t.Fatalf("size after resize = %dx%d", w, h)
	}
	rects := d.Render()
	if len(rects) != 1 || rects[0] != gfx.R(0, 0, 320, 240) {
		t.Fatalf("resize damage = %+v", rects)
	}
	if root.Bounds() != gfx.R(0, 0, 320, 240) {
		t.Fatalf("root not re-laid-out: %+v", root.Bounds())
	}
	ref := fullRepaint(d)
	equal := false
	d.WithFramebuffer(func(fb *gfx.Framebuffer) { equal = fb.Equal(ref) })
	if !equal {
		t.Fatal("post-resize framebuffer diverged from full repaint")
	}
}

// TestRenderIntoReusesStorage pins the zero-allocation render contract at
// the API level.
func TestRenderIntoReusesStorage(t *testing.T) {
	d := NewDisplay(200, 150)
	tg := NewToggle("Power", false, nil)
	root := NewPanel(VBox{})
	root.Add(tg)
	d.SetRoot(root)
	d.Render()

	buf := make([]gfx.Rect, 0, 16)
	on := false
	allocs := testing.AllocsPerRun(200, func() {
		on = !on
		d.Update(func() { tg.SetOn(on) })
		buf, _ = d.RenderTraceInto(buf)
		if len(buf) == 0 {
			t.Fatal("no damage")
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state widget update allocated %.1f/op, want 0", allocs)
	}
}
