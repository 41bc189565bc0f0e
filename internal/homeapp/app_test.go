package homeapp

import (
	"strings"
	"testing"

	"uniint/internal/appliance"
	"uniint/internal/havi"
	"uniint/internal/havi/fcm"
	"uniint/internal/toolkit"
)

// harness assembles a home + display + app for tests.
type harness struct {
	home    *appliance.Home
	display *toolkit.Display
	app     *App
}

func newHarness(t *testing.T, appliances ...appliance.Appliance) *harness {
	t.Helper()
	home := appliance.NewHome()
	for _, a := range appliances {
		if _, err := home.Add(a); err != nil {
			t.Fatal(err)
		}
	}
	home.Network().WaitIdle()
	display := toolkit.NewDisplay(640, 480)
	app := New(home.Network(), display)
	home.Network().WaitIdle()
	t.Cleanup(func() {
		app.Close()
		home.Close()
	})
	return &harness{home: home, display: display, app: app}
}

// findWidget walks the tree for the first widget matching pred.
func findWidget(root toolkit.Widget, pred func(toolkit.Widget) bool) toolkit.Widget {
	if root == nil {
		return nil
	}
	if pred(root) {
		return root
	}
	for _, c := range root.Children() {
		if w := findWidget(c, pred); w != nil {
			return w
		}
	}
	return nil
}

func TestEmptyHomeShowsPlaceholder(t *testing.T) {
	h := newHarness(t)
	lbl := findWidget(h.display.Root(), func(w toolkit.Widget) bool {
		l, ok := w.(*toolkit.Label)
		return ok && strings.Contains(l.Text(), "No appliances")
	})
	if lbl == nil {
		t.Fatal("placeholder label missing")
	}
}

func TestComposedGUIListsAllAppliances(t *testing.T) {
	h := newHarness(t, appliance.NewTV("TV1"), appliance.NewVCR("VCR1"))
	titles := h.app.PanelInventory()
	if len(titles) != 2 {
		t.Fatalf("titles = %v", titles)
	}
	if !strings.Contains(titles[0], "TV1") || !strings.Contains(titles[1], "VCR1") {
		t.Errorf("titles = %v", titles)
	}
}

func TestGUIRegeneratesOnHotPlug(t *testing.T) {
	h := newHarness(t, appliance.NewTV("TV1"))
	before := h.app.Rebuilds()

	lamp := appliance.NewLamp("Lamp1")
	if _, err := h.home.Add(lamp); err != nil {
		t.Fatal(err)
	}
	h.home.Network().WaitIdle()
	if h.app.Rebuilds() <= before {
		t.Fatal("attach did not rebuild the GUI")
	}
	titles := h.app.PanelInventory()
	if len(titles) != 2 {
		t.Fatalf("titles after attach = %v", titles)
	}

	h.home.Remove(lamp)
	h.home.Network().WaitIdle()
	titles = h.app.PanelInventory()
	if len(titles) != 1 || !strings.Contains(titles[0], "TV1") {
		t.Fatalf("titles after detach = %v", titles)
	}
}

func TestToggleDrivesApplianceThroughGUI(t *testing.T) {
	lamp := appliance.NewLamp("Desk")
	h := newHarness(t, lamp)
	h.display.Render()

	// Find the lamp's power toggle and click it.
	tog := findWidget(h.display.Root(), func(w toolkit.Widget) bool {
		tg, ok := w.(*toolkit.Toggle)
		return ok && !tg.On()
	})
	if tog == nil {
		t.Fatal("power toggle not found")
	}
	b := tog.Bounds()
	h.click(b.X+2, b.Y+2)
	h.home.Network().WaitIdle()

	if v, _ := lamp.Bulb().Get(fcm.CtlPower); v != 1 {
		t.Fatal("clicking the GUI toggle did not power the lamp")
	}
}

func TestApplianceChangePropagatesToGUI(t *testing.T) {
	lamp := appliance.NewLamp("Desk")
	h := newHarness(t, lamp)
	h.display.Render()

	// Flip the appliance directly (e.g. someone used the physical switch).
	if err := lamp.Bulb().Set(fcm.CtlPower, 1); err != nil {
		t.Fatal(err)
	}
	h.home.Network().WaitIdle()

	tog := findWidget(h.display.Root(), func(w toolkit.Widget) bool {
		tg, ok := w.(*toolkit.Toggle)
		return ok && tg.On()
	})
	if tog == nil {
		t.Fatal("GUI toggle did not follow appliance state")
	}
}

func TestReadoutUpdatesWithSimulation(t *testing.T) {
	vcr := appliance.NewVCR("Deck")
	h := newHarness(t, vcr)
	vcr.Deck().Set(fcm.CtlPower, 1)
	vcr.Deck().Do(fcm.VCRLoad)
	vcr.Deck().Do(fcm.VCRPlay)
	h.home.Advance(5)
	h.home.Network().WaitIdle()

	lbl := findWidget(h.display.Root(), func(w toolkit.Widget) bool {
		l, ok := w.(*toolkit.Label)
		return ok && strings.Contains(l.Text(), "Counter: 5")
	})
	if lbl == nil {
		t.Fatal("counter readout did not update")
	}
	// Transport readout uses option names.
	tr := findWidget(h.display.Root(), func(w toolkit.Widget) bool {
		l, ok := w.(*toolkit.Label)
		return ok && strings.Contains(l.Text(), "Transport: play")
	})
	if tr == nil {
		t.Fatal("transport readout missing or not symbolic")
	}
}

func TestSelectCyclesThroughOptions(t *testing.T) {
	amp := appliance.NewAmplifier("Amp")
	h := newHarness(t, amp)
	amp.Amp().Set(fcm.CtlPower, 1)
	h.home.Network().WaitIdle()
	h.display.Render()

	// Find the input select button (label "Input: tv").
	btn := findWidget(h.display.Root(), func(w toolkit.Widget) bool {
		b, ok := w.(*toolkit.Button)
		return ok && strings.HasPrefix(b.Label(), "Input:")
	})
	if btn == nil {
		t.Fatal("select button not found")
	}
	bb := btn.(*toolkit.Button)
	if bb.Label() != "Input: tv" {
		t.Fatalf("initial select label = %q", bb.Label())
	}
	r := bb.Bounds()
	h.click(r.X+2, r.Y+2)
	h.home.Network().WaitIdle()
	if v, _ := amp.Amp().Get(fcm.AmpInput); v != 1 {
		t.Fatalf("input after click = %d", v)
	}
	if bb.Label() != "Input: vcr" {
		t.Fatalf("label after click = %q", bb.Label())
	}
}

func TestActionButtonsDriveStateMachine(t *testing.T) {
	vcr := appliance.NewVCR("Deck")
	h := newHarness(t, vcr)
	vcr.Deck().Set(fcm.CtlPower, 1)
	vcr.Deck().Do(fcm.VCRLoad)
	h.home.Network().WaitIdle()
	h.display.Render()

	play := findWidget(h.display.Root(), func(w toolkit.Widget) bool {
		b, ok := w.(*toolkit.Button)
		return ok && b.Label() == "Play"
	})
	if play == nil {
		t.Fatal("play button not found")
	}
	r := play.Bounds()
	h.click(r.X+2, r.Y+2)
	h.home.Network().WaitIdle()
	if s, _ := vcr.Deck().Get(fcm.VCRTransport); s != fcm.TransportPlay {
		t.Fatalf("transport = %d", s)
	}
}

func TestRejectedCommandDoesNotDesyncGUI(t *testing.T) {
	// Clicking Play with no tape is rejected by the FCM; the GUI readout
	// must continue to show the true appliance state.
	vcr := appliance.NewVCR("Deck")
	h := newHarness(t, vcr)
	vcr.Deck().Set(fcm.CtlPower, 1) // powered, but no tape
	h.home.Network().WaitIdle()
	h.display.Render()

	play := findWidget(h.display.Root(), func(w toolkit.Widget) bool {
		b, ok := w.(*toolkit.Button)
		return ok && b.Label() == "Play"
	})
	r := play.Bounds()
	h.click(r.X+2, r.Y+2)
	h.home.Network().WaitIdle()
	if s, _ := vcr.Deck().Get(fcm.VCRTransport); s != fcm.TransportStop {
		t.Fatalf("transport = %d, want stop", s)
	}
	tr := findWidget(h.display.Root(), func(w toolkit.Widget) bool {
		l, ok := w.(*toolkit.Label)
		return ok && strings.Contains(l.Text(), "Transport: stop")
	})
	if tr == nil {
		t.Fatal("GUI lost sync after rejected command")
	}
}

func TestKeyboardOnlyOperation(t *testing.T) {
	// The whole composed GUI must be operable with Tab/Enter alone — the
	// path keypad devices rely on.
	lamp := appliance.NewLamp("Desk")
	h := newHarness(t, lamp)
	h.display.Render()

	// Tab until focus lands on a toggle, then press Enter.
	for i := 0; i < 10; i++ {
		if _, ok := h.display.Focus().(*toolkit.Toggle); ok {
			break
		}
		h.display.InjectKey(true, toolkit.KeyTab)
		h.display.InjectKey(false, toolkit.KeyTab)
	}
	if _, ok := h.display.Focus().(*toolkit.Toggle); !ok {
		t.Fatal("could not reach toggle via keyboard")
	}
	h.display.InjectKey(true, toolkit.KeyEnter)
	h.home.Network().WaitIdle()
	if v, _ := lamp.Bulb().Get(fcm.CtlPower); v != 1 {
		t.Fatal("keyboard-only activation failed")
	}
}

func TestCloseStopsReacting(t *testing.T) {
	h := newHarness(t, appliance.NewLamp("L"))
	h.app.Close()
	h.app.Close() // idempotent
	before := h.app.Rebuilds()
	if _, err := h.home.Add(appliance.NewLamp("L2")); err != nil {
		t.Fatal(err)
	}
	h.home.Network().WaitIdle()
	if h.app.Rebuilds() != before {
		t.Error("closed app still rebuilding")
	}
}

func TestManyAppliancesCompose(t *testing.T) {
	var as []appliance.Appliance
	for i := 0; i < 8; i++ {
		as = append(as, appliance.NewLamp("L"+string(rune('A'+i))))
	}
	h := newHarness(t, as...)
	if titles := h.app.PanelInventory(); len(titles) != 8 {
		t.Fatalf("titles = %d", len(titles))
	}
	if err := havi.Control.Validate(havi.Control{ID: "x", Kind: havi.ControlToggle}); err != nil {
		t.Fatal(err)
	}
}

// click presses and releases the pointer at (x, y), as a pointing device
// does through InjectPointer.
func (h *harness) click(x, y int) {
	h.display.InjectPointer(x, y, 1)
	h.display.InjectPointer(x, y, 0)
}
