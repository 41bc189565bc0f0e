package device

import (
	"testing"

	"uniint/internal/core"
	"uniint/internal/gfx"
	"uniint/internal/rfb"
)

func collect(ch <-chan core.RawEvent, n int) []core.RawEvent {
	out := make([]core.RawEvent, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, <-ch)
	}
	return out
}

func TestPDAStylusTranslation(t *testing.T) {
	pda := NewPDA("pda-1")
	defer pda.Close()
	pl := pda.InputPlugin()
	pl.Bind(640, 480) // server is 2x the PDA panel

	pda.Tap(100, 50)
	evs := collect(pda.Events(), 2)

	down := pl.Translate(evs[0])
	if len(down) != 1 || !down[0].IsPointer {
		t.Fatalf("down = %+v", down)
	}
	if down[0].Pointer.X != 200 || down[0].Pointer.Y != 100 {
		t.Errorf("scaled coords = (%d,%d), want (200,100)", down[0].Pointer.X, down[0].Pointer.Y)
	}
	if down[0].Pointer.Buttons != 1 {
		t.Error("down event should press button 0")
	}
	up := pl.Translate(evs[1])
	if up[0].Pointer.Buttons != 0 {
		t.Error("up event should release buttons")
	}
}

func TestPDAOutputPluginGeometry(t *testing.T) {
	pl := NewPDA("p").OutputPlugin()
	fb := gfx.NewFramebuffer(640, 480)
	fb.Clear(gfx.Blue)
	f := pl.Convert(fb)
	if f.W != PDAWidth || f.H != PDAHeight || f.RGB == nil || f.Bits != nil {
		t.Fatalf("frame = %dx%d rgb=%v", f.W, f.H, f.RGB != nil)
	}
	if f.RGB.At(10, 10) != gfx.Blue {
		t.Error("content lost in conversion")
	}
	if pl.PixelFormat().BitsPerPixel != 16 {
		t.Error("PDA should request 16bpp")
	}
}

func TestPhoneKeypadTranslation(t *testing.T) {
	phone := NewPhone("ph-1")
	defer phone.Close()
	pl := phone.InputPlugin()
	pl.Bind(640, 480)

	tests := []struct {
		key  string
		want uint32
	}{
		{"up", rfb.KeyUp}, {"down", rfb.KeyDown}, {"ok", rfb.KeyReturn},
		{"2", rfb.KeyUp}, {"8", rfb.KeyDown}, {"5", rfb.KeyReturn},
		{"4", rfb.KeyLeft}, {"6", rfb.KeyRight}, {"#", rfb.KeyTab},
		{"7", '7'}, // unmapped digit passes through
	}
	for _, tt := range tests {
		phone.PressKey(tt.key)
		evs := collect(phone.Events(), 2)
		down := pl.Translate(evs[0])
		up := pl.Translate(evs[1])
		if len(down) != 1 || down[0].IsPointer || down[0].Key.Key != tt.want || !down[0].Key.Down {
			t.Errorf("key %q down = %+v, want key %x", tt.key, down, tt.want)
		}
		if len(up) != 1 || up[0].Key.Down {
			t.Errorf("key %q up = %+v", tt.key, up)
		}
	}
}

func TestPhoneOutputPluginDithers(t *testing.T) {
	pl := NewPhone("p").OutputPlugin()
	fb := gfx.NewFramebuffer(640, 480)
	fb.Clear(gfx.RGB(128, 128, 128))
	f := pl.Convert(fb)
	if f.W != PhoneWidth || f.H != PhoneHeight || f.Bits == nil || f.RGB != nil {
		t.Fatalf("frame = %+v", f)
	}
	ones := f.Bits.Ones()
	total := PhoneWidth * PhoneHeight
	if ones < total*35/100 || ones > total*65/100 {
		t.Errorf("mid-gray dither coverage = %d/%d", ones, total)
	}
	if pl.PixelFormat().BitsPerPixel != 8 {
		t.Error("phone should request 8bpp")
	}
}

func TestTVDisplayPassthrough(t *testing.T) {
	tv := NewTVDisplay("tv-1")
	pl := tv.OutputPlugin()
	fb := gfx.NewFramebuffer(640, 480)
	fb.Fill(gfx.R(10, 10, 5, 5), gfx.Red)
	f := pl.Convert(fb)
	if f.W != TVWidth || f.H != TVHeight {
		t.Fatalf("geometry %dx%d", f.W, f.H)
	}
	if !f.RGB.Equal(fb) {
		t.Error("TV conversion should be lossless at native size")
	}
	if f.Damage != nil {
		t.Errorf("a first frame is whole, got damage %v", f.Damage)
	}
	// The frame is the plug-in's own: independent of the source.
	fb.Clear(gfx.Black)
	if f.RGB.At(10, 10) != gfx.Red {
		t.Error("frame aliases the source framebuffer")
	}
}

func TestTVPluginConvertsWhatWasDamaged(t *testing.T) {
	pl := NewTVDisplay("tv-1").OutputPlugin()
	fb := gfx.NewFramebuffer(TVWidth, TVHeight)
	pl.Convert(fb)

	// Told what changed: the frame carries that damage and matches.
	widget := gfx.R(40, 60, 120, 24)
	fb.Fill(widget, gfx.Green)
	pl.Damaged([]gfx.Rect{widget})
	f := pl.Convert(fb)
	if len(f.Damage) != 1 || f.Damage[0] != widget {
		t.Errorf("damage = %v, want [%v]", f.Damage, widget)
	}
	if !f.RGB.Equal(fb) {
		t.Error("frame differs from the source after converting its damage")
	}

	// Told that nothing changed: an empty, non-nil damage list.
	pl.Damaged(nil)
	if f = pl.Convert(fb); f.Damage == nil || len(f.Damage) != 0 {
		t.Errorf("damage after an empty report = %#v, want empty and non-nil", f.Damage)
	}

	// Told nothing: the whole framebuffer, whatever changed.
	fb.Fill(gfx.R(300, 300, 50, 50), gfx.Red)
	if f = pl.Convert(fb); f.Damage != nil || !f.RGB.Equal(fb) {
		t.Errorf("an untold Convert must be whole (damage %v)", f.Damage)
	}

	// Reports pile up across updates the device sat out, bounded.
	for i := 0; i < 100; i++ {
		r := gfx.R((i*37)%600, (i*53)%440, 20, 20)
		fb.Fill(r, gfx.RGB(uint8(i), 0, 0))
		pl.Damaged([]gfx.Rect{r})
	}
	if f = pl.Convert(fb); len(f.Damage) > tvDamageLimit || !f.RGB.Equal(fb) {
		t.Errorf("after 100 reports: %d damage rects, frame matches = %v", len(f.Damage), f.RGB.Equal(fb))
	}
}

// TestTVPluginRescalesOddDesktopInPlace: an odd-sized desktop is rescaled
// into the plug-in's one frame, allocating nothing per Convert, and the way
// back to the native size copies the whole frame even when told of a small
// change: native → odd → native ends byte-identical to a fresh plug-in's
// conversion.
func TestTVPluginRescalesOddDesktopInPlace(t *testing.T) {
	pl := NewTVDisplay("tv-1").OutputPlugin()
	native := gfx.NewFramebuffer(TVWidth, TVHeight)
	native.Fill(gfx.R(40, 60, 120, 24), gfx.Green)
	pl.Convert(native)

	odd := gfx.NewFramebuffer(160, 120)
	lamp := []gfx.Rect{gfx.R(10, 10, 30, 20)}
	odd.Fill(lamp[0], gfx.Red)
	pl.Damaged(lamp)
	f := pl.Convert(odd)
	want := gfx.NewFramebuffer(TVWidth, TVHeight)
	gfx.ScaleNearestInto(want, odd)
	if f.Damage != nil || !f.RGB.Equal(want) {
		t.Errorf("odd-sized desktop: damage %v, frame is its rescale = %v", f.Damage, f.RGB.Equal(want))
	}
	if n := testing.AllocsPerRun(50, func() {
		pl.Damaged(lamp)
		pl.Convert(odd)
	}); n != 0 {
		t.Errorf("an odd-sized Convert allocates %.1f times, want 0", n)
	}

	knob := []gfx.Rect{gfx.R(300, 300, 10, 10)}
	native.Fill(knob[0], gfx.Red)
	pl.Damaged(knob)
	f = pl.Convert(native)
	fresh := NewTVDisplay("tv-2").OutputPlugin().Convert(native)
	if f.Damage != nil || !f.RGB.Equal(fresh.RGB) {
		t.Errorf("back at the native size: damage %v, frame equals a fresh plug-in's = %v", f.Damage, f.RGB.Equal(fresh.RGB))
	}
}

func TestScreenKeepsItsOwnPanel(t *testing.T) {
	s := newScreen()
	frame := gfx.NewFramebuffer(8, 8) // the plug-in's frame, reused
	frame.Clear(gfx.Red)
	s.present(core.Frame{W: 8, H: 8, RGB: frame, Seq: 1})
	first := s.Latest()

	// The plug-in repaints its frame and says where.
	frame.Clear(gfx.Green)
	dmg := []gfx.Rect{gfx.R(2, 2, 3, 3)}
	s.present(core.Frame{W: 8, H: 8, RGB: frame, Seq: 2, Damage: dmg})
	second := s.Latest()
	if first.RGB.At(3, 3) != gfx.Red {
		t.Error("a snapshot changed under a later present")
	}
	if second.RGB.At(3, 3) != gfx.Green || second.RGB.At(0, 0) != gfx.Red {
		t.Error("the panel must take exactly the damaged rectangles")
	}
	if second.Seq != 2 || second.Damage != nil {
		t.Errorf("snapshot seq=%d damage=%v", second.Seq, second.Damage)
	}

	// A 1-bit device copies its frame too.
	lcd := newScreen()
	bits := gfx.NewBitmap(8, 8)
	bits.Set(1, 1, true)
	lcd.present(core.Frame{W: 8, H: 8, Bits: bits, Seq: 1})
	bits.Set(1, 1, false)
	if !lcd.Latest().Bits.Get(1, 1) {
		t.Error("the LCD aliases the plug-in's bitmap")
	}
}

func TestVoiceGrammar(t *testing.T) {
	tests := []struct {
		utterance string
		want      []uint32
		ok        bool
	}{
		{"next", []uint32{rfb.KeyTab}, true},
		{"please select", []uint32{rfb.KeyReturn}, true},
		{"move down", []uint32{rfb.KeyTab}, true},
		{"turn it up", []uint32{rfb.KeyRight}, true},
		{"NEXT", []uint32{rfb.KeyTab}, true}, // case-insensitive
		{"next twice", []uint32{rfb.KeyTab, rfb.KeyTab}, true},
		{"increase three times", []uint32{rfb.KeyRight, rfb.KeyRight, rfb.KeyRight}, true},
		{"pressure cooker", nil, false}, // word boundaries: no "press"
		{"", nil, false},
		{"sing me a song", nil, false},
	}
	for _, tt := range tests {
		got, ok := RecognizeUtterance(tt.utterance)
		if ok != tt.ok {
			t.Errorf("%q: ok = %v, want %v", tt.utterance, ok, tt.ok)
			continue
		}
		if len(got) != len(tt.want) {
			t.Errorf("%q: keys = %v, want %v", tt.utterance, got, tt.want)
			continue
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("%q: keys = %v, want %v", tt.utterance, got, tt.want)
				break
			}
		}
	}
}

func TestVoicePluginCountsRecognition(t *testing.T) {
	v := NewVoiceInput("v-1")
	defer v.Close()
	pl := v.InputPlugin()
	pl.Bind(640, 480)

	v.Say("select")
	v.Say("gibberish phrase")
	evs := collect(v.Events(), 2)

	out := pl.Translate(evs[0])
	if len(out) != 2 { // press + release
		t.Fatalf("select produced %d events", len(out))
	}
	if out := pl.Translate(evs[1]); out != nil {
		t.Fatalf("gibberish produced events: %+v", out)
	}
	if v.Recognized() != 1 || v.Rejected() != 1 {
		t.Errorf("recognized=%d rejected=%d", v.Recognized(), v.Rejected())
	}
}

func TestClassifyStroke(t *testing.T) {
	line := func(x0, y0, x1, y1, n int) []Point {
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: x0 + (x1-x0)*i/(n-1), Y: y0 + (y1-y0)*i/(n-1)}
		}
		return pts
	}
	circle := func(cx, cy, r, n int) []Point {
		pts := make([]Point, 0, n+1)
		// Octagonal approximation avoids pulling in math.
		offsets := [][2]int{{r, 0}, {r * 7 / 10, r * 7 / 10}, {0, r}, {-r * 7 / 10, r * 7 / 10},
			{-r, 0}, {-r * 7 / 10, -r * 7 / 10}, {0, -r}, {r * 7 / 10, -r * 7 / 10}, {r, 0}}
		for _, o := range offsets {
			pts = append(pts, Point{X: cx + o[0], Y: cy + o[1]})
		}
		return pts
	}

	tests := []struct {
		name   string
		points []Point
		want   string
		ok     bool
	}{
		{"tap", []Point{{50, 50}, {51, 51}, {50, 52}}, StrokeTap, true},
		{"swipe right", line(10, 50, 90, 52, 10), StrokeSwipeRight, true},
		{"swipe left", line(90, 50, 10, 48, 10), StrokeSwipeLeft, true},
		{"swipe down", line(50, 10, 53, 90, 10), StrokeSwipeDown, true},
		{"swipe up", line(50, 90, 47, 10, 10), StrokeSwipeUp, true},
		{"circle", circle(50, 50, 30, 16), StrokeCircle, true},
		{"diagonal ambiguous", line(0, 0, 50, 50, 10), "", false},
		{"empty", nil, "", false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, ok := ClassifyStroke(tt.points)
			if ok != tt.ok || got != tt.want {
				t.Errorf("ClassifyStroke = %q/%v, want %q/%v", got, ok, tt.want, tt.ok)
			}
		})
	}
}

func TestGestureDeviceClassifiesAndEmits(t *testing.T) {
	g := NewGestureInput("g-1")
	defer g.Close()
	pl := g.InputPlugin()
	pl.Bind(640, 480)

	g.Stroke([]Point{{50, 90}, {50, 60}, {49, 30}, {50, 10}})
	ev := <-g.Events()
	if ev.Code != StrokeSwipeUp {
		t.Fatalf("stroke = %q", ev.Code)
	}
	out := pl.Translate(ev)
	if len(out) != 2 || out[0].Key.Key != rfb.KeyUp {
		t.Fatalf("events = %+v", out)
	}
	// Unclassifiable strokes never reach the stream.
	g.Stroke([]Point{{0, 0}, {30, 30}})
	select {
	case ev := <-g.Events():
		t.Errorf("unclassifiable stroke emitted %+v", ev)
	default:
	}
}

func TestRemoteTranslation(t *testing.T) {
	r := NewRemoteControl("r-1")
	defer r.Close()
	pl := r.InputPlugin()
	pl.Bind(640, 480)

	r.Press("ok")
	evs := collect(r.Events(), 2)
	down := pl.Translate(evs[0])
	if len(down) != 1 || down[0].Key.Key != rfb.KeyReturn || !down[0].Key.Down {
		t.Fatalf("ok down = %+v", down)
	}
	// Unknown button names produce nothing.
	if out := pl.Translate(core.RawEvent{Kind: core.EvButton, Code: "nonsense", Down: true}); out != nil {
		t.Errorf("unknown button events = %+v", out)
	}
	// Digits pass through.
	if out := pl.Translate(core.RawEvent{Kind: core.EvButton, Code: "3", Down: true}); len(out) != 1 || out[0].Key.Key != '3' {
		t.Errorf("digit = %+v", out)
	}
}

func TestEmitterDropsWhenFull(t *testing.T) {
	e := newEmitter(2)
	for i := 0; i < 5; i++ {
		e.emit(core.RawEvent{Kind: "x"})
	}
	if e.Dropped() != 3 {
		t.Errorf("dropped = %d, want 3", e.Dropped())
	}
	e.close()
	e.emit(core.RawEvent{Kind: "x"}) // after close: counted, not delivered
	if e.Dropped() != 4 {
		t.Errorf("dropped after close = %d", e.Dropped())
	}
	// Channel is closed after draining buffered events.
	n := 0
	for range e.events() {
		n++
	}
	if n != 2 {
		t.Errorf("delivered = %d", n)
	}
}

func TestScreenLatestWins(t *testing.T) {
	s := newScreen()
	done := make(chan core.Frame, 1)
	go func() { done <- s.WaitFrames(3) }()
	for i := 1; i <= 3; i++ {
		s.present(core.Frame{Seq: uint64(i)})
	}
	f := <-done
	if f.Seq != 3 {
		t.Errorf("latest seq = %d", f.Seq)
	}
	if s.FrameCount() != 3 {
		t.Errorf("count = %d", s.FrameCount())
	}
}
