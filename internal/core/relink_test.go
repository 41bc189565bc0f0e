package core_test

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uniint/internal/core"
	"uniint/internal/device"
	"uniint/internal/gfx"
	"uniint/internal/leakcheck"
	"uniint/internal/netsim"
	"uniint/internal/rfb"
	"uniint/internal/toolkit"
)

// countingTV is a TV whose plug-in fetches, and the PixelFormat questions
// its plug-ins hear, are counted.
type countingTV struct {
	*device.TVDisplay
	plugins, formats atomic.Int64
}

func (d *countingTV) OutputPlugin() core.OutputPlugin {
	d.plugins.Add(1)
	return countingFormat{d.TVDisplay.OutputPlugin(), d}
}

type countingFormat struct {
	core.OutputPlugin
	d *countingTV
}

func (p countingFormat) PixelFormat() gfx.PixelFormat {
	p.d.formats.Add(1)
	return p.OutputPlugin.PixelFormat()
}

// countingInput counts its device's input plug-in fetches.
type countingInput struct {
	core.InputDevice
	plugins atomic.Int64
}

func (d *countingInput) InputPlugin() core.InputPlugin {
	d.plugins.Add(1)
	return d.InputDevice.InputPlugin()
}

// panelIsShadow reports whether the TV shows the proxy's shadow frame byte
// for byte.
func panelIsShadow(tv *device.TVDisplay, p *core.Proxy) bool {
	got := tv.Latest().RGB
	return got != nil && got.Equal(p.Client().Snapshot(gfx.R(0, 0, device.TVWidth, device.TVHeight)))
}

// TestRelinkKeepsOutputPlugins: an output's plug-in belongs to its
// attachment, not to a link. Over resumed hops and cold joins between two
// homes the proxy fetches the TV's plug-in once, asks its pixel format once
// per relink and fetches the phone's input plug-in once per link, and
// after every hop the kept plug-in brings the TV to the shadow frame byte
// for byte.
func TestRelinkKeepsOutputPlugins(t *testing.T) {
	leakcheck.Check(t, 0)
	homes := [2]*redialStack{newRedialStack(t), newRedialStack(t)}
	labels := [2]*toolkit.Label{}
	for i, h := range homes {
		labels[i] = toolkit.NewLabel(fmt.Sprintf("home %d", i))
		root := toolkit.NewPanel(toolkit.VBox{Gap: 4, Padding: 4})
		root.Add(labels[i])
		for j := 0; j < 4; j++ {
			root.Add(toolkit.NewToggle(fmt.Sprintf("home %d appliance %d", i, j), (i+j)%2 == 0, nil))
		}
		h.display.SetRoot(root)
		h.display.Render()
	}
	var at atomic.Int32 // the home the next dial reaches
	proxy, err := core.Connect(func() (net.Conn, error) { return homes[at.Load()].dial() },
		core.WithBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	phone := &countingInput{InputDevice: device.NewPhone("phone-1")}
	defer phone.InputDevice.(*device.Phone).Close()
	tv := &countingTV{TVDisplay: device.NewTVDisplay("tv-1")}
	if err := proxy.AttachInput(phone); err != nil {
		t.Fatal(err)
	}
	if err := proxy.AttachOutput(tv); err != nil {
		t.Fatal(err)
	}
	if err := proxy.SelectInput("phone-1"); err != nil {
		t.Fatal(err)
	}
	if err := proxy.SelectOutput("tv-1"); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "first frame", func() bool { return panelIsShadow(tv.TVDisplay, proxy) })

	const hops = 6
	for hop := 1; hop <= hops; hop++ {
		cold := hop%3 == 0
		from := at.Load()
		if cold {
			at.Store(1 - from)
		}
		frames := tv.FrameCount()
		homes[from].dropLink()
		waitCond(t, fmt.Sprintf("hop %d", hop), func() bool { return proxy.Reconnects() == int64(hop) })
		if proxy.Resumed() == cold {
			t.Fatalf("hop %d: resumed = %v, want %v", hop, proxy.Resumed(), !cold)
		}
		home := at.Load()
		homes[home].display.Update(func() { labels[home].SetText(fmt.Sprintf("home %d after hop %d", home, hop)) })
		waitCond(t, fmt.Sprintf("hop %d: a frame", hop), func() bool { return tv.FrameCount() > frames })
		waitCond(t, fmt.Sprintf("hop %d: panel equals the shadow", hop), func() bool { return panelIsShadow(tv.TVDisplay, proxy) })
	}
	if n := tv.plugins.Load(); n != 1 {
		t.Errorf("OutputPlugin fetched %d times over %d hops, want once per attachment", n, hops)
	}
	if n := tv.formats.Load(); n != 1+hops {
		t.Errorf("PixelFormat asked %d times, want %d: the selection, then once per relink", n, 1+hops)
	}
	if n := phone.plugins.Load(); n != 1+hops {
		t.Errorf("InputPlugin fetched %d times, want %d: once per link", n, 1+hops)
	}
}

// faultyWrites is the server end of a scripted link: once the test arms
// a fault-scheduled conn, writes go through it.
type faultyWrites struct {
	net.Conn
	fault atomic.Pointer[netsim.Conn]
}

func (c *faultyWrites) Write(p []byte) (int, error) {
	if f := c.fault.Load(); f != nil {
		return f.Write(p)
	}
	return c.Conn.Write(p)
}

// scriptLink is one link of a scripted, resuming server: the test ships
// what it likes and hears each update request.
type scriptLink struct {
	srv      *rfb.ServerConn
	conn     *faultyWrites
	requests chan struct{}
}

func (l *scriptLink) KeyEvent(rfb.KeyEvent)         {}
func (l *scriptLink) PointerEvent(rfb.PointerEvent) {}
func (l *scriptLink) CutText(string)                {}
func (l *scriptLink) UpdateRequest(rfb.UpdateRequest) {
	select {
	case l.requests <- struct{}{}:
	default:
	}
}

// TestRelinkAfterTornUpdate: a link cut partway through a multi-rectangle
// update leaves rectangles in the shadow frame that no present reported.
// The resumed link adopts that frame, and after its next present the TV,
// whose plug-in the proxy kept, shows the shadow byte for byte.
func TestRelinkAfterTornUpdate(t *testing.T) {
	leakcheck.Check(t, 0)
	display := toolkit.NewDisplay(device.TVWidth, device.TVHeight)
	root := toolkit.NewPanel(toolkit.VBox{Gap: 4, Padding: 6})
	label := toolkit.NewLabel("before the cut")
	root.Add(label)
	var toggles []*toolkit.Toggle
	for i := 0; i < 6; i++ {
		tg := toolkit.NewToggle(fmt.Sprintf("appliance %d", i), i%2 == 0, nil)
		toggles = append(toggles, tg)
		root.Add(tg)
	}
	display.SetRoot(root)
	full := display.Render()

	const token = "torn-session"
	resume := func(presented string) (string, bool) { return token, presented == token }
	links := make(chan *scriptLink, 4)
	var served sync.WaitGroup
	defer served.Wait()
	dial := func() (net.Conn, error) {
		sc, cc := net.Pipe()
		l := &scriptLink{conn: &faultyWrites{Conn: sc}, requests: make(chan struct{}, 8)}
		served.Add(1)
		go func() {
			defer served.Done()
			srv, err := rfb.NewEdgeServerConn(l.conn, device.TVWidth, device.TVHeight, "torn", resume)
			if err != nil {
				return
			}
			l.srv = srv
			links <- l
			_ = srv.Serve(l)
		}()
		return cc, nil
	}
	proxy, err := core.Connect(dial, core.WithBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	tv := device.NewTVDisplay("tv-1")
	if err := proxy.AttachOutput(tv); err != nil {
		t.Fatal(err)
	}
	if err := proxy.SelectOutput("tv-1"); err != nil {
		t.Fatal(err)
	}
	next := func(what string) *scriptLink {
		t.Helper()
		select {
		case l := <-links:
			return l
		case <-time.After(2 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
			return nil
		}
	}
	requested := func(l *scriptLink, what string) {
		t.Helper()
		select {
		case <-l.requests:
		case <-time.After(2 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
	}
	// ship prepares rects of the display and sends them; a fresh wire
	// model assumes nothing the proxy holds, so every rectangle ships its
	// pixels. A non-nil cut names the byte of the update, given its size,
	// after which the link dies: netsim delivers the prefix and drops it.
	ship := func(l *scriptLink, rects []gfx.Rect, cut func(size int) int) error {
		t.Helper()
		urs := make([]rfb.UpdateRect, len(rects))
		for i, r := range rects {
			urs[i] = rfb.UpdateRect{Rect: r, Encoding: rfb.EncRaw}
		}
		var prep *rfb.PreparedUpdate
		display.WithFramebuffer(func(fb *gfx.Framebuffer) {
			prep, err = l.srv.PrepareUpdateWire(fb, urs, rfb.NewWireState(rfb.NewTileCache(0), device.TVWidth, device.TVHeight))
		})
		if err != nil {
			t.Fatal(err)
		}
		if cut != nil {
			n := int64(cut(prep.Size()))
			inj := netsim.NewInjector(netsim.FaultConfig{DropAfterMin: n, DropAfterMax: n, Truncate: true})
			l.conn.fault.Store(inj.Wrap(l.conn.Conn))
		}
		return l.srv.SendPrepared(prep)
	}

	first := next("the first link")
	requested(first, "the selection's full request")
	if err := ship(first, full, nil); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "the first frame", func() bool { return panelIsShadow(tv, proxy) })
	firstClient := proxy.Client()

	// Two toggles repaint two rectangles apart; the link dies one byte
	// short of the update's end, so the first is painted and never
	// reported.
	display.Update(func() {
		toggles[1].SetOn(!toggles[1].On())
		toggles[4].SetOn(!toggles[4].On())
	})
	rects := display.Render()
	if len(rects) < 2 {
		t.Fatalf("the torn update has %d rectangles, want several", len(rects))
	}
	if err := ship(first, rects, func(size int) int { return size - 1 }); err == nil {
		t.Fatal("the cut update was sent whole")
	}
	second := next("the resumed link")
	requested(second, "the resumed link's incremental request")
	waitCond(t, "the resumed link", func() bool { return proxy.Reconnects() == 1 })
	if !proxy.Resumed() {
		t.Fatal("the second link did not resume")
	}
	if n := firstClient.UpdatesReceived(); n != 1 {
		t.Fatalf("the first link applied %d updates, want 1: the second must be torn", n)
	}
	want := display.Snapshot(rects[0])
	if got := proxy.Client().Snapshot(rects[0]); !got.Equal(want) {
		t.Fatalf("the torn update did not paint its first rectangle %v into the shadow", rects[0])
	}

	// The next present carries only the label's damage.
	frames := tv.FrameCount()
	display.Update(func() { label.SetText("after the cut") })
	if err := ship(second, display.Render(), nil); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "the next present", func() bool { return tv.FrameCount() > frames })
	if !panelIsShadow(tv, proxy) {
		t.Fatal("after the torn update and the next present, the TV differs from the shadow frame")
	}
}
