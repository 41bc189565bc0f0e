//go:build linux

package main

import (
	"fmt"
	"strings"

	"uniint"
	"uniint/internal/appliance"
	"uniint/internal/homeapp"
	"uniint/internal/toolkit"
)

// twin is, in this process, the panel the hub's factory composes for one
// home: the same appliances on their own middleware, the same home
// application, the same 640×480 display — but no server, so nothing
// renders or ships behind the harness's back. The harness reads widget
// kinds and geometry off it instead of hard-coding pixels, and the layer
// replays run on it.
type twin struct {
	Home    *appliance.Home
	Display *toolkit.Display
	App     *homeapp.App
}

// homeAppliances builds a home's appliances under the names cmd/unihub's
// factory gives them ("<home>/<class>-<i>"), which the panel titles show.
func homeAppliances(homeID string) ([]appliance.Appliance, error) {
	var apps []appliance.Appliance
	for i, class := range strings.Split(hubClasses, ",") {
		a, err := appliance.New(class, fmt.Sprintf("%s/%s-%d", homeID, class, i))
		if err != nil {
			return nil, err
		}
		apps = append(apps, a)
	}
	return apps, nil
}

func newTwin(homeID string) (*twin, error) {
	apps, err := homeAppliances(homeID)
	if err != nil {
		return nil, err
	}
	home := appliance.NewHome()
	for _, a := range apps {
		if _, err := home.Add(a); err != nil {
			home.Close()
			return nil, err
		}
	}
	home.Network().WaitIdle()
	d := toolkit.NewDisplay(hubWidth, hubHeight)
	t := &twin{Home: home, Display: d, App: homeapp.New(home.Network(), d)}
	d.Render()
	return t, nil
}

// WaitIdle blocks until the middleware has delivered every queued event.
func (t *twin) WaitIdle() { t.Home.Network().WaitIdle() }

func (t *twin) Close() {
	t.App.Close()
	t.Home.Close()
}

// newHome assembles one home's full stack, server included, as the hub's
// factory does.
func newHome(homeID string, tiles *uniint.TileCache) (*uniint.HubSession, error) {
	apps, err := homeAppliances(homeID)
	if err != nil {
		return nil, err
	}
	return uniint.NewSessionForHub(uniint.Options{
		Width: hubWidth, Height: hubHeight, Name: homeID, Appliances: apps, Tiles: tiles,
	})
}

// focusLap lists the panel's focus stops in traversal order, starting at
// the stop a fresh display focuses; toggle[i] marks the stops "ok" flips.
func focusLap(d *toolkit.Display) (toggle []bool) {
	var walk func(w toolkit.Widget)
	walk = func(w toolkit.Widget) {
		if w.Visible() && w.Focusable() {
			_, isToggle := w.(*toolkit.Toggle)
			toggle = append(toggle, isToggle)
		}
		for _, c := range w.Children() {
			walk(c)
		}
	}
	if root := d.Root(); root != nil {
		walk(root)
	}
	return toggle
}

// sliderTrack describes one slider in PDA device coordinates: the row to
// drag along and, per device x, the value a contact there sets.
type sliderTrack struct {
	y      int
	x0     int   // device x of values[0]
	values []int // value set by a contact at x0+i
}

// distinct counts the different values along the track.
func (t sliderTrack) distinct() int {
	seen := map[int]bool{}
	for _, v := range t.values {
		seen[v] = true
	}
	return len(seen)
}

// widestSlider finds the twin's slider with the most distinct values and
// maps it by touching the twin at every device column of its bounds.
// scale is server pixels per device pixel (the PDA halves 640×480).
func widestSlider(d *toolkit.Display, scale int) (sliderTrack, bool) {
	var sliders []*toolkit.Slider
	var walk func(w toolkit.Widget)
	walk = func(w toolkit.Widget) {
		if s, ok := w.(*toolkit.Slider); ok && s.Visible() && s.Enabled() {
			sliders = append(sliders, s)
		}
		for _, c := range w.Children() {
			walk(c)
		}
	}
	if root := d.Root(); root != nil {
		walk(root)
	}
	var best sliderTrack
	for _, s := range sliders {
		b := s.Bounds()
		t := sliderTrack{y: (b.Y + b.H/2) / scale, x0: (b.X + scale - 1) / scale}
		for dx := t.x0; dx*scale < b.MaxX(); dx++ {
			d.InjectPointer(dx*scale, t.y*scale, 1)
			// Read under the display lock: the appliance's echo of the
			// change lands on another goroutine.
			d.Update(func() { t.values = append(t.values, s.Value()) })
		}
		d.InjectPointer(b.X, t.y*scale, 0)
		if t.distinct() > best.distinct() {
			best = t
		}
	}
	return best, len(best.values) > 0
}
