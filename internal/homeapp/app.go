// Package homeapp implements the paper's "home appliance application": the
// program that "generates a control panel for currently available
// appliances". It watches the HAVi registry, fetches each appliance's DDI
// control surface over the message system, and builds a composed toolkit
// GUI — one titled panel per appliance — that regenerates whenever devices
// join or leave the bus (paper §2.2: "the application generates the
// composed GUI for TV and VCR if both TV and VCR are currently available").
//
// The application is written purely against the toolkit and middleware: it
// has no knowledge of thin-client protocols or interaction devices, which
// is exactly the property (C3) the paper's architecture promises.
package homeapp

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"uniint/internal/havi"
	"uniint/internal/metrics"
	"uniint/internal/toolkit"
)

// mSendFailures counts control commands the middleware refused to enqueue
// (the appliance detached under the panel, or the network is closing).
var mSendFailures = metrics.Default().Counter("homeapp_send_failures_total")

// App is the home appliance application bound to one display session.
type App struct {
	net     *havi.Network
	display *toolkit.Display

	mu       sync.Mutex
	bindings map[havi.SEID]map[string]func(v int)
	closed   bool

	regWatch int
	evSub    int

	rebuilds atomic.Int64
}

// New creates the application, builds the initial composed GUI and
// subscribes to middleware changes. Close releases the subscriptions.
func New(net *havi.Network, display *toolkit.Display) *App {
	a := &App{
		net:      net,
		display:  display,
		bindings: make(map[havi.SEID]map[string]func(v int)),
	}
	a.regWatch = net.Registry().Watch(func(c havi.Change) {
		// Only DCM arrivals/departures change the panel set.
		if c.Entry.Attrs["type"] == "dcm" {
			a.Rebuild()
		}
	})
	a.evSub = net.Events().Subscribe(havi.EventFCMChanged, a.onFCMChanged)
	a.Rebuild()
	return a
}

// Close unsubscribes from the middleware. The display keeps its last GUI.
func (a *App) Close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	a.mu.Unlock()
	a.net.Registry().Unwatch(a.regWatch)
	a.net.Events().Unsubscribe(a.evSub)
}

// Rebuilds returns how many times the composed GUI has been regenerated.
func (a *App) Rebuilds() int64 { return a.rebuilds.Load() }

// Rebuild regenerates the composed control panel from the current
// registry contents. It is invoked automatically on device arrival and
// departure; tests and benchmarks may call it directly.
func (a *App) Rebuild() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.mu.Unlock()

	root, bindings := a.generate()

	a.mu.Lock()
	a.bindings = bindings
	a.mu.Unlock()

	a.display.SetRoot(root)
	a.rebuilds.Add(1)
}

// onFCMChanged pushes an appliance state change into the bound widget.
func (a *App) onFCMChanged(ev havi.Event) {
	a.mu.Lock()
	var update func(int)
	if m, ok := a.bindings[ev.Source]; ok {
		update = m[ev.Key]
	}
	a.mu.Unlock()
	if update != nil {
		update(ev.Value)
	}
}

// generate builds the widget tree and the SEID→control→updater index.
func (a *App) generate() (toolkit.Widget, map[havi.SEID]map[string]func(v int)) {
	bindings := make(map[havi.SEID]map[string]func(v int))

	dcms := a.net.Registry().Query(map[string]string{"type": "dcm"})
	root := toolkit.NewPanel(toolkit.Grid{Cols: 2, Gap: 6, Padding: 6})

	if len(dcms) == 0 {
		empty := toolkit.NewLabel("No appliances available")
		empty.SetAlign(toolkit.AlignCenter)
		root.Add(empty)
		return root, bindings
	}

	for _, dcm := range dcms {
		devPanel := toolkit.NewPanel(toolkit.VBox{Gap: 2, Padding: 4})
		devPanel.SetTitle(fmt.Sprintf("%s (%s)", dcm.Attrs["name"], dcm.Attrs["class"]))
		fcms := a.net.Registry().Query(map[string]string{
			"type": "fcm",
			"guid": dcm.Attrs["guid"],
		})
		for _, entry := range fcms {
			a.addFCMControls(devPanel, entry.SEID, bindings)
		}
		root.Add(devPanel)
	}
	return root, bindings
}

// addFCMControls fetches one FCM's DDI descriptors and appends bound
// widgets for them to panel.
func (a *App) addFCMControls(panel *toolkit.Panel, seid havi.SEID, bindings map[havi.SEID]map[string]func(v int)) {
	rep, err := a.net.Messages().Call(havi.Message{Dst: seid, Op: havi.OpDescribe})
	if err != nil {
		panel.Add(toolkit.NewLabel("unreachable: " + seid.String()))
		return
	}
	controls, err := havi.UnmarshalControls(rep.Data)
	if err != nil {
		panel.Add(toolkit.NewLabel("bad descriptor: " + seid.String()))
		return
	}
	binds := make(map[string]func(v int), len(controls))
	bindings[seid] = binds

	// Fetch current values so the GUI starts in sync.
	value := func(id string) int {
		r, err := a.net.Messages().Call(havi.Message{Dst: seid, Op: havi.OpGet, Key: id})
		if err != nil {
			return 0
		}
		return r.Value
	}

	// Momentary actions share one row to keep panels compact.
	actionRow := toolkit.NewPanel(toolkit.HBox{Gap: 2})
	actions := 0

	for _, c := range controls {
		c := c
		switch c.Kind {
		case havi.ControlToggle:
			w := toolkit.NewToggle(c.Label, value(c.ID) == 1, func(on bool) {
				a.send(havi.Message{Dst: seid, Op: havi.OpSet, Key: c.ID, Value: boolToInt(on)})
			})
			binds[c.ID] = func(v int) { a.display.Update(func() { w.SetOn(v == 1) }) }
			panel.Add(w)

		case havi.ControlRange:
			w := toolkit.NewSlider(c.Label, c.Min, c.Max, value(c.ID), func(v int) {
				a.send(havi.Message{Dst: seid, Op: havi.OpSet, Key: c.ID, Value: v})
			})
			if c.Step > 0 {
				w.SetStep(c.Step)
			}
			binds[c.ID] = func(v int) { a.display.Update(func() { w.SetValue(v) }) }
			panel.Add(w)

		case havi.ControlAction:
			w := toolkit.NewButton(c.Label, func() {
				a.send(havi.Message{Dst: seid, Op: havi.OpDo, Key: c.ID})
			})
			actionRow.Add(w)
			actions++

		case havi.ControlSelect:
			w := toolkit.NewButton(selectLabel(c, value(c.ID)), nil)
			cur := value(c.ID)
			var curMu sync.Mutex
			w.OnClick = func() {
				curMu.Lock()
				next := (cur + 1) % len(c.Options)
				curMu.Unlock()
				a.send(havi.Message{Dst: seid, Op: havi.OpSet, Key: c.ID, Value: next})
			}
			binds[c.ID] = func(v int) {
				curMu.Lock()
				cur = v
				curMu.Unlock()
				a.display.Update(func() { w.SetLabel(selectLabel(c, v)) })
			}
			panel.Add(w)

		case havi.ControlReadout:
			w := toolkit.NewLabel(readoutLabel(c, value(c.ID)))
			w.SetColor(readoutColor)
			binds[c.ID] = func(v int) {
				a.display.Update(func() { w.SetText(readoutLabel(c, v)) })
			}
			panel.Add(w)
		}
	}
	if actions > 0 {
		panel.Add(actionRow)
	}
}

func (a *App) send(m havi.Message) {
	if err := a.net.Messages().Send(m); err != nil {
		// The appliance raced away (detached) or the middleware is
		// shutting down; the GUI will be rebuilt shortly. Degrade quietly.
		mSendFailures.Inc()
	}
}

// readoutColor distinguishes read-only values from interactive text.
const readoutColor = 0x104080

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func selectLabel(c havi.Control, v int) string {
	if v >= 0 && v < len(c.Options) {
		return c.Label + ": " + c.Options[v]
	}
	return c.Label
}

func readoutLabel(c havi.Control, v int) string {
	if len(c.Options) > 0 && v >= 0 && v < len(c.Options) {
		return c.Label + ": " + c.Options[v]
	}
	return fmt.Sprintf("%s: %d", c.Label, v)
}

// PanelInventory describes the generated GUI for assertions: appliance
// titles in display order.
func (a *App) PanelInventory() []string {
	root := a.display.Root()
	var titles []string
	var walk func(w toolkit.Widget)
	walk = func(w toolkit.Widget) {
		if p, ok := w.(*toolkit.Panel); ok && p.Title() != "" {
			titles = append(titles, p.Title())
		}
		for _, c := range w.Children() {
			walk(c)
		}
	}
	if root != nil {
		walk(root)
	}
	sort.Strings(titles)
	return titles
}
