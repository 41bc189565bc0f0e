package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"uniint/internal/core"
	"uniint/internal/device"
	"uniint/internal/gfx"
	"uniint/internal/metrics"
	"uniint/internal/rfb"
	"uniint/internal/toolkit"
)

// presentRig is a proxy whose peer is the test itself: a real toolkit
// display renders the damage and a raw protocol server ships exactly the
// updates the script asks for, one per step. Quiescence is therefore a
// frame count, never a sleep.
type presentRig struct {
	t       *testing.T
	display *toolkit.Display
	srv     *rfb.ServerConn
	tiles   *rfb.TileCache
	proxy   *core.Proxy
	toggles []*toolkit.Toggle
	label   *toolkit.Label
}

// scriptedServer ignores what the proxy sends: the script decides when an
// update goes out, including the answer to a full-update request.
type scriptedServer struct{}

func (scriptedServer) KeyEvent(rfb.KeyEvent)           {}
func (scriptedServer) PointerEvent(rfb.PointerEvent)   {}
func (scriptedServer) UpdateRequest(rfb.UpdateRequest) {}
func (scriptedServer) CutText(string)                  {}

func newPresentRig(t *testing.T) *presentRig {
	t.Helper()
	r := &presentRig{
		t:       t,
		display: toolkit.NewDisplay(device.TVWidth, device.TVHeight),
		tiles:   rfb.NewTileCache(0),
	}
	root := toolkit.NewPanel(toolkit.VBox{Gap: 4, Padding: 6})
	r.label = toolkit.NewLabel("step 0")
	root.Add(r.label)
	for i := 0; i < 6; i++ {
		tg := toolkit.NewToggle(fmt.Sprintf("appliance %d", i), i%2 == 0, nil)
		r.toggles = append(r.toggles, tg)
		root.Add(tg)
	}
	r.display.SetRoot(root)
	r.display.Render()

	sc, cc := net.Pipe()
	ready := make(chan *rfb.ServerConn, 1)
	served := make(chan struct{})
	go func() {
		defer close(served)
		s, err := rfb.NewEdgeServerConn(sc, device.TVWidth, device.TVHeight, "present test", nil)
		if err != nil {
			close(ready)
			return
		}
		ready <- s
		_ = s.Serve(scriptedServer{})
	}()
	proxy, err := core.Dial(cc)
	if err != nil {
		t.Fatal(err)
	}
	if r.srv = <-ready; r.srv == nil {
		t.Fatal("server handshake failed")
	}
	r.proxy = proxy
	ran := make(chan struct{})
	go func() { defer close(ran); _ = proxy.Run() }()
	t.Cleanup(func() {
		proxy.Close()
		sc.Close()
		for _, done := range []chan struct{}{ran, served} {
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Error("present rig goroutine stuck")
			}
		}
	})
	return r
}

// send ships one update carrying rects of the display's framebuffer.
func (r *presentRig) send(rects []gfx.Rect) {
	r.t.Helper()
	if len(rects) == 0 {
		if err := r.srv.SendEmptyUpdate(); err != nil {
			r.t.Fatal(err)
		}
		return
	}
	urs := make([]rfb.UpdateRect, len(rects))
	for i, rc := range rects {
		urs[i] = rfb.UpdateRect{Rect: rc, Encoding: rfb.EncAdaptive}
	}
	var prep *rfb.PreparedUpdate
	var err error
	r.display.WithFramebuffer(func(fb *gfx.Framebuffer) {
		// A fresh wire model assumes nothing the proxy holds, so every
		// rectangle ships its pixels: none is a self-copy.
		prep, err = r.srv.PrepareUpdateWire(fb, urs, rfb.NewWireState(r.tiles, device.TVWidth, device.TVHeight))
	})
	if err == nil {
		err = r.srv.SendPrepared(prep)
	}
	if err != nil {
		r.t.Fatal(err)
	}
}

// repaint applies fn to the widget tree and returns what it repainted.
func (r *presentRig) repaint(fn func()) []gfx.Rect {
	r.display.Update(fn)
	return r.display.Render()
}

func (r *presentRig) shadow() *gfx.Framebuffer {
	return r.proxy.Client().Snapshot(gfx.R(0, 0, device.TVWidth, device.TVHeight))
}

// watchedOutput wraps a display simulator and checks every frame on its
// way in: Frame.Damage must cover whatever the frame changed on the
// device's panel, colour or 1-bit.
type watchedOutput struct {
	core.OutputDevice
	latest func() core.Frame
	t      *testing.T

	mu     sync.Mutex
	frames int64
	pixels int64 // what proxy_present_pixels_total should have added
}

func (w *watchedOutput) Present(f core.Frame) {
	before := w.latest()
	w.OutputDevice.Present(f)
	after := w.latest()
	if f.Damage != nil {
		var differs func(x, y int) bool
		switch {
		case f.RGB != nil && before.RGB != nil:
			differs = func(x, y int) bool { return before.RGB.At(x, y) != after.RGB.At(x, y) }
		case f.Bits != nil && before.Bits != nil:
			differs = func(x, y int) bool { return before.Bits.Get(x, y) != after.Bits.Get(x, y) }
		}
		if differs == nil {
			w.t.Errorf("%s: a partial frame (damage %v) reached an empty panel", w.ID(), f.Damage)
		} else if x, y, ok := firstUncovered(f.W, f.H, differs, f.Damage); ok {
			w.t.Errorf("%s: pixel (%d,%d) changed outside Frame.Damage %v", w.ID(), x, y, f.Damage)
		}
	}
	px := int64(f.W) * int64(f.H)
	if f.Damage != nil {
		px = area(f.Damage)
	}
	w.mu.Lock()
	w.frames++
	w.pixels += px
	w.mu.Unlock()
}

func (w *watchedOutput) counts() (frames, pixels int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.frames, w.pixels
}

// firstUncovered finds a pixel of a w×h panel that differs and lies in
// none of the rects.
func firstUncovered(w, h int, differs func(x, y int) bool, rects []gfx.Rect) (x, y int, found bool) {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if !differs(x, y) {
				continue
			}
			covered := false
			for _, r := range rects {
				covered = covered || r.Contains(x, y)
			}
			if !covered {
				return x, y, true
			}
		}
	}
	return 0, 0, false
}

// holdsConversionOf reports whether the device shows exactly what a fresh
// plug-in makes of the whole shadow.
func (w *watchedOutput) holdsConversionOf(shadow *gfx.Framebuffer) bool {
	got, want := w.latest(), w.OutputDevice.OutputPlugin().Convert(shadow)
	switch {
	case got.RGB != nil && want.RGB != nil:
		return got.RGB.Equal(want.RGB)
	case got.Bits != nil && want.Bits != nil:
		return got.Bits.W == want.Bits.W && got.Bits.H == want.Bits.H && bytes.Equal(got.Bits.Bits, want.Bits.Bits)
	}
	return false
}

// tally is an output that is always attached and never shown anything but
// a 1×1 frame: as a permanent mirror it gives every step a frame to wait
// for, and it counts the Damaged calls an attached plug-in hears.
type tally struct {
	id string

	mu      sync.Mutex
	damaged int64
	frames  int64
}

func (d *tally) ID() string                      { return d.id }
func (d *tally) Class() string                   { return "tally" }
func (d *tally) OutputPlugin() core.OutputPlugin { return tallyPlugin{d} }
func (d *tally) Present(core.Frame)              { d.mu.Lock(); d.frames++; d.mu.Unlock() }
func (d *tally) counts() (damaged, frames int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.damaged, d.frames
}

type tallyPlugin struct{ d *tally }

func (tallyPlugin) Name() string                 { return "tally" }
func (tallyPlugin) PixelFormat() gfx.PixelFormat { return gfx.PF32() }
func (p tallyPlugin) Damaged([]gfx.Rect)         { p.d.mu.Lock(); p.d.damaged++; p.d.mu.Unlock() }
func (tallyPlugin) Convert(*gfx.Framebuffer) core.Frame {
	return core.Frame{W: 1, H: 1, RGB: gfx.NewFramebuffer(1, 1)}
}

// presentModel is what the script believes the proxy's output state is,
// and from it how many frames each device must have seen.
type presentModel struct {
	t        *testing.T
	rig      *presentRig
	outs     map[string]*watchedOutput
	ids      []string
	active   string
	mirrors  map[string]bool
	attached map[string]bool
	want     map[string]int64 // frames each watched output must have seen
	current  map[string]bool  // the output's plug-in made a frame of the latest present

	mirror, idle *tally
	updates      int64 // updates the script sent
	presents     int64 // presents the mirror tally must have seen
}

func newPresentModel(t *testing.T) *presentModel {
	rig := newPresentRig(t)
	tv, pda, phone := device.NewTVDisplay("tv"), device.NewPDA("pda"), device.NewPhone("phone")
	t.Cleanup(pda.Close)
	t.Cleanup(phone.Close)
	m := &presentModel{
		t: t, rig: rig,
		outs: map[string]*watchedOutput{
			"tv":    {OutputDevice: tv, latest: tv.Latest, t: t},
			"pda":   {OutputDevice: pda, latest: pda.Latest, t: t},
			"phone": {OutputDevice: phone, latest: phone.Latest, t: t},
		},
		ids:     []string{"tv", "pda", "phone"},
		mirrors: map[string]bool{}, attached: map[string]bool{},
		want: map[string]int64{}, current: map[string]bool{},
		mirror: &tally{id: "tally-mirror"}, idle: &tally{id: "tally-idle"},
	}
	for _, id := range m.ids {
		m.attach(id)
	}
	for _, d := range []*tally{m.mirror, m.idle} {
		if err := rig.proxy.AttachOutput(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := rig.proxy.AddMirror(m.mirror.id); err != nil {
		t.Fatal(err)
	}
	return m
}

func (m *presentModel) attach(id string) {
	if err := m.rig.proxy.AttachOutput(m.outs[id]); err != nil {
		m.t.Fatal(err)
	}
	m.attached[id] = true
}

func (m *presentModel) targets() []string {
	var ids []string
	for _, id := range m.ids {
		if m.attached[id] && (id == m.active || m.mirrors[id]) {
			ids = append(ids, id)
		}
	}
	return ids
}

// presented accounts for one present (an update or a refresh) and waits
// until every target has its frame and nobody else got one.
func (m *presentModel) presented() {
	m.t.Helper()
	m.presents++
	for _, id := range m.ids {
		m.current[id] = false
	}
	for _, id := range m.targets() {
		m.want[id]++
		m.current[id] = true
	}
	waitCond(m.t, "the step's frames", func() bool {
		if _, n := m.mirror.counts(); n != m.presents {
			return false
		}
		for _, id := range m.ids {
			if n, _ := m.outs[id].counts(); n != m.want[id] {
				return false
			}
		}
		return true
	})
}

// update ships rects as one update and waits for its frames.
func (m *presentModel) update(rects []gfx.Rect) {
	m.t.Helper()
	m.updates++
	m.rig.send(rects)
	m.presented()
}

func (m *presentModel) selectOutput(id string) {
	m.t.Helper()
	changed := m.active != id
	if err := m.rig.proxy.SelectOutput(id); err != nil {
		m.t.Fatal(err)
	}
	m.active = id
	if changed {
		// The proxy demanded a full update; answer like a server.
		m.update([]gfx.Rect{gfx.R(0, 0, device.TVWidth, device.TVHeight)})
	}
}

func (m *presentModel) setMirror(id string, on bool) {
	m.t.Helper()
	if !on {
		m.rig.proxy.RemoveMirror(id)
		delete(m.mirrors, id)
		return
	}
	if err := m.rig.proxy.AddMirror(id); err != nil {
		m.t.Fatal(err)
	}
	m.mirrors[id] = true
}

// check asserts the invariants that hold between steps.
func (m *presentModel) check(step string) {
	m.t.Helper()
	shadow := m.rig.shadow()
	for _, id := range m.ids {
		if m.current[id] && !m.outs[id].holdsConversionOf(shadow) {
			m.t.Fatalf("%s: %s does not show a fresh conversion of the shadow", step, id)
		}
	}
	if damaged, frames := m.idle.counts(); damaged != m.updates || frames != 0 {
		m.t.Fatalf("%s: the attached, never-shown output heard %d of %d updates and got %d frames", step, damaged, m.updates, frames)
	}
}

func area(rects []gfx.Rect) int64 {
	var n int64
	for _, r := range rects {
		n += int64(r.Area())
	}
	return n
}

// TestPresentFollowsDamage is the property the damage-proportional output
// path must keep: whatever the server damages and however the outputs are
// switched, mirrored, detached and refreshed in between, a device being
// shown the session holds exactly a whole conversion of the shadow, every
// Frame.Damage covers what the frame changed, and the pixel count grows
// by the damage on the pass-through path.
func TestPresentFollowsDamage(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m := newPresentModel(t)
			pixels := metrics.Default().Counter("proxy_present_pixels_total")
			pixels0 := pixels.Value()
			m.selectOutput("tv")
			m.check("first frame")

			rotation := 0
			for i := 1; i <= 60; i++ {
				_, tvBefore := m.outs["tv"].counts()
				tvCurrent := m.current["tv"]
				var step string
				sent, isUpdate := []gfx.Rect(nil), true
				switch op := rng.Intn(100); {
				case op < 30:
					n := 1 + rng.Intn(3)
					step = fmt.Sprintf("toggle %d widgets", n)
					sent = m.rig.repaint(func() {
						for _, k := range rng.Perm(len(m.rig.toggles))[:n] {
							tg := m.rig.toggles[k]
							tg.SetOn(!tg.On())
						}
					})
					m.update(sent)
				case op < 40:
					step = "label edit"
					sent = m.rig.repaint(func() { m.rig.label.SetText(fmt.Sprintf("step %d of seed %d", i, seed)) })
					m.update(sent)
				case op < 44:
					step = "invalidate all"
					m.rig.display.InvalidateAll()
					sent = m.rig.display.Render()
					m.update(sent)
				case op < 50:
					step = "empty update"
					m.update(nil)
				case op < 58:
					rotation++
					id := m.ids[rotation%len(m.ids)]
					step, isUpdate = "select "+id, false
					if m.attached[id] {
						m.selectOutput(id)
					}
				case op < 84:
					// Half the flips go to the TV, the output that keeps its
					// frame across the updates it sits out.
					id := "tv"
					if rng.Intn(2) == 0 {
						id = m.ids[rng.Intn(len(m.ids))]
					}
					step, isUpdate = fmt.Sprintf("mirror %s: %v", id, !m.mirrors[id]), false
					m.setMirror(id, !m.mirrors[id])
				case op < 89:
					id := m.ids[rng.Intn(len(m.ids))]
					step, isUpdate = "re-attach "+id, false
					if err := m.rig.proxy.DetachOutput(id); err != nil {
						t.Fatal(err)
					}
					if m.active == id {
						m.active = ""
					}
					delete(m.mirrors, id)
					m.current[id] = false
					m.attach(id)
				default:
					step = "full update"
					sent = []gfx.Rect{gfx.R(0, 0, device.TVWidth, device.TVHeight)}
					m.update(sent)
				}
				step = fmt.Sprintf("step %d (%s)", i, step)
				m.check(step)

				// On the pass-through path a frame costs what was damaged:
				// a TV that saw the previous frame too copies exactly the
				// update's rectangles, not the screen.
				if _, tvAfter := m.outs["tv"].counts(); isUpdate && tvCurrent && m.current["tv"] {
					if got, want := tvAfter-tvBefore, area(sent); got != want {
						t.Fatalf("%s: the TV frame counted %d px for %d px of damage %v", step, got, want, sent)
					}
				}
			}

			// Everything on at once, one more change, and every device agrees.
			m.selectOutput("tv")
			m.setMirror("pda", true)
			m.setMirror("phone", true)
			m.update(m.rig.repaint(func() { m.rig.toggles[0].SetOn(!m.rig.toggles[0].On()) }))
			m.check("finale")

			want := m.presents // the mirror tally's 1×1 frames
			for _, id := range m.ids {
				_, px := m.outs[id].counts()
				want += px
			}
			if got := pixels.Value() - pixels0; got != want {
				t.Errorf("proxy_present_pixels_total grew by %d, the presented frames' damage adds up to %d", got, want)
			}
		})
	}
}

// TestMirrorAddedLaterRepaintsWhatItMissed is the case that needs Damaged
// on outputs that are not being shown: a TV that sat out two updates and
// is then mirrored — no full update announces that — must come back with
// both changes, at the cost of their damage.
func TestMirrorAddedLaterRepaintsWhatItMissed(t *testing.T) {
	m := newPresentModel(t)
	m.selectOutput("pda")
	m.setMirror("tv", true)
	m.update(nil) // the TV's first frame, whole
	m.setMirror("tv", false)
	var missed []gfx.Rect
	for _, tg := range m.rig.toggles[:2] {
		rects := m.rig.repaint(func() { tg.SetOn(!tg.On()) })
		missed = append(missed, rects...)
		m.update(rects)
	}
	m.setMirror("tv", true)
	_, before := m.outs["tv"].counts()
	m.update(nil)
	m.check("mirrored after two missed updates")
	if _, after := m.outs["tv"].counts(); after-before != area(missed) {
		t.Errorf("catching up cost %d px, the missed damage is %d px", after-before, area(missed))
	}
}

// TestDetachedOutputIsNoMirror: detaching a mirrored output ends the
// mirror, so re-attaching the device does not quietly resume it.
func TestDetachedOutputIsNoMirror(t *testing.T) {
	rig := newPresentRig(t)
	tv, pda := device.NewTVDisplay("tv"), device.NewPDA("pda")
	t.Cleanup(pda.Close)
	for _, d := range []core.OutputDevice{tv, pda} {
		if err := rig.proxy.AttachOutput(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := rig.proxy.SelectOutput("tv"); err != nil {
		t.Fatal(err)
	}
	if err := rig.proxy.AddMirror("pda"); err != nil {
		t.Fatal(err)
	}
	if err := rig.proxy.DetachOutput("pda"); err != nil {
		t.Fatal(err)
	}
	if err := rig.proxy.AttachOutput(pda); err != nil {
		t.Fatal(err)
	}
	if got := rig.proxy.Mirrors(); len(got) != 0 {
		t.Errorf("Mirrors() = %v after the mirror was detached and re-attached, want none", got)
	}
	rig.send([]gfx.Rect{gfx.R(0, 0, device.TVWidth, device.TVHeight)})
	waitCond(t, "the TV's frame", func() bool { return tv.Latest().Seq == 1 })
	rig.proxy.RemoveMirror("nobody") // barrier: the read loop is out of present
	if seq := pda.Latest().Seq; seq != 0 {
		t.Errorf("the re-attached PDA got frame %d, want none", seq)
	}
}

// TestPresentAllocatesNothing pins the output path at zero allocations
// per frame on every bundled device, through the proxy, the plug-in's frame
// and the device's panel: widget-sized damage (the TV copies it, the PDA
// and the phone convert whole into storage of their own) and an update
// with no rectangles (nothing changed).
func TestPresentAllocatesNothing(t *testing.T) {
	for _, dev := range []interface {
		core.OutputDevice
		Latest() core.Frame
	}{device.NewTVDisplay("tv"), device.NewPDA("pda"), device.NewPhone("phone")} {
		t.Run(dev.ID(), func(t *testing.T) {
			rig := newPresentRig(t)
			if err := rig.proxy.AttachOutput(dev); err != nil {
				t.Fatal(err)
			}
			if err := rig.proxy.SelectOutput(dev.ID()); err != nil {
				t.Fatal(err)
			}
			rig.send([]gfx.Rect{gfx.R(0, 0, device.TVWidth, device.TVHeight)})
			waitCond(t, "the first, whole frame", func() bool { return dev.Latest().Seq == 1 })
			rig.proxy.RemoveMirror("nobody") // barrier: the read loop is out of present

			pixels := metrics.Default().Counter("proxy_present_pixels_total")
			for _, c := range []struct {
				name  string
				rects []gfx.Rect
			}{{"widget damage", []gfx.Rect{rig.toggles[0].Bounds()}}, {"no rectangles", nil}} {
				px0 := pixels.Value()
				if allocs := testing.AllocsPerRun(200, func() { rig.proxy.PresentUpdate(c.rects) }); allocs != 0 {
					t.Errorf("presenting %s allocates %.1f times per frame, want 0", c.name, allocs)
				}
				if px := pixels.Value() - px0; c.rects == nil && px != 0 {
					t.Errorf("presenting %s changed %d px, want 0", c.name, px)
				}
			}
			if got := dev.Latest().Seq; got != 1+2*201 { // AllocsPerRun warms up once
				t.Errorf("the device saw %d frames, want %d", got, 1+2*201)
			}
		})
	}
}
