// Package workload provides the deterministic content generators and
// scripted interaction sessions behind the experiment suite (indexed in
// bench_test.go): frame classes for encoding benchmarks, damage patterns,
// and the canonical 30-interaction session replayed against each output
// device for the bandwidth experiment E8.
package workload

import (
	"math/rand"

	"uniint/internal/gfx"
)

// GUIFrame paints a control-panel-like frame: flat fills, bevels and text
// — the content class the universal interaction protocol actually carries.
func GUIFrame(w, h int) *gfx.Framebuffer {
	f := gfx.NewFramebuffer(w, h)
	f.Clear(gfx.LightGray)
	f.Fill(gfx.R(0, 0, w, 18), gfx.Navy)
	gfx.DrawText(f, 6, 5, "Home Appliance Control Panel", gfx.White)
	cols := max(w/160, 1)
	for i := 0; i < cols*3; i++ {
		x := 8 + (i%cols)*(w/cols)
		y := 28 + (i/cols)*52
		panel := gfx.R(x, y, w/cols-16, 44)
		f.Fill(panel, gfx.Gray)
		f.Bevel(panel, false)
		gfx.DrawText(f, panel.X+6, panel.Y+6, "Power  Volume  Play", gfx.Black)
		bar := gfx.R(panel.X+6, panel.Y+24, panel.W-12, 10)
		f.Fill(bar, gfx.White)
		f.Fill(gfx.R(bar.X, bar.Y, bar.W*(i+1)/(cols*3+1), bar.H), gfx.Blue)
		f.Border(bar, gfx.DarkGray)
	}
	return f
}

// NoiseFrame paints seeded uniform noise: the incompressible worst case
// for the run-length encodings.
func NoiseFrame(w, h int, seed int64) *gfx.Framebuffer {
	rng := rand.New(rand.NewSource(seed))
	f := gfx.NewFramebuffer(w, h)
	pix := f.Pix()
	for i := range pix {
		pix[i] = gfx.Color(rng.Uint32() & 0xFFFFFF)
	}
	return f
}

// TextFrame paints dense terminal-style text: many small high-contrast
// glyphs, the hardest realistic content for tile encodings.
func TextFrame(w, h int, seed int64) *gfx.Framebuffer {
	rng := rand.New(rand.NewSource(seed))
	f := gfx.NewFramebuffer(w, h)
	f.Clear(gfx.Black)
	line := make([]byte, w/gfx.GlyphW)
	for y := 0; y+gfx.GlyphH <= h; y += gfx.GlyphH {
		for i := range line {
			line[i] = byte(0x21 + rng.Intn(0x5D))
		}
		gfx.DrawText(f, 0, y, string(line), gfx.Green)
	}
	return f
}

// FlatFrame paints a single solid color: the best case for every
// encoding.
func FlatFrame(w, h int) *gfx.Framebuffer {
	f := gfx.NewFramebuffer(w, h)
	f.Clear(gfx.Blue)
	return f
}

// Frames returns the named content classes at the given geometry.
func Frames(w, h int) map[string]*gfx.Framebuffer {
	return map[string]*gfx.Framebuffer{
		"flat":  FlatFrame(w, h),
		"gui":   GUIFrame(w, h),
		"text":  TextFrame(w, h, 11),
		"noise": NoiseFrame(w, h, 42),
	}
}

// WidgetDamage generates n widget-sized dirty rectangles inside bounds —
// the damage pattern of incremental updates (button repaints, slider
// knobs), as opposed to full-frame refreshes.
func WidgetDamage(bounds gfx.Rect, n int, seed int64) []gfx.Rect {
	rng := rand.New(rand.NewSource(seed))
	out := make([]gfx.Rect, 0, n)
	for i := 0; i < n; i++ {
		w := 40 + rng.Intn(80)
		h := 12 + rng.Intn(20)
		x := bounds.X + rng.Intn(max(bounds.W-w, 1))
		y := bounds.Y + rng.Intn(max(bounds.H-h, 1))
		out = append(out, gfx.R(x, y, w, h))
	}
	return out
}

// Step is one scripted user interaction, dispatched by device class.
type Step struct {
	// Device selects the input class: "pda", "phone", "voice", "remote",
	// "gesture".
	Device string
	// Action is device-specific: "tap" (pda, X/Y), "key" (phone, Arg),
	// "say" (voice, Arg), "press" (remote, Arg), "stroke" (gesture, Arg).
	Action string
	Arg    string
	X, Y   int
}

// Script is an ordered interaction session.
type Script []Step

// StandardSession is the canonical 30-interaction session used by
// experiment E8: a realistic mix of focus navigation, activations and
// value adjustments, expressed for a keypad-class device (every step uses
// the phone so the same script is comparable across output devices).
func StandardSession() Script {
	var s Script
	add := func(key string, times int) {
		for i := 0; i < times; i++ {
			s = append(s, Step{Device: "phone", Action: "key", Arg: key})
		}
	}
	add("#", 3)  // tab to the third control
	add("ok", 1) // activate
	add("6", 5)  // nudge a slider right five times
	add("#", 2)  // move on
	add("ok", 2) // toggle twice
	add("4", 3)  // slider left
	add("#", 4)  // traverse
	add("ok", 1) // activate
	add("2", 4)  // focus up
	add("ok", 1) // activate
	add("6", 2)  // adjust
	add("ok", 2) // two more activations
	return s     // 30 steps total
}

// Len returns the number of steps (sanity helper for tests).
func (s Script) Len() int { return len(s) }
