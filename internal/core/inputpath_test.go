package core_test

import (
	"sync"
	"testing"
	"time"

	"uniint/internal/core"
	"uniint/internal/device"
	"uniint/internal/toolkit"
)

// fakeDevice is a minimal input device with a caller-owned event channel
// and plug-in, for tests that need to control translation timing.
type fakeDevice struct {
	id     string
	plugin core.InputPlugin
	ch     chan core.RawEvent
}

func (d *fakeDevice) ID() string                    { return d.id }
func (d *fakeDevice) Class() string                 { return "fake" }
func (d *fakeDevice) InputPlugin() core.InputPlugin { return d.plugin }
func (d *fakeDevice) Events() <-chan core.RawEvent  { return d.ch }

// gatePlugin blocks inside Translate until its gate opens, signalling
// entry — the in-flight-translation window the switch barrier must cover.
type gatePlugin struct {
	entered chan struct{}
	gate    chan struct{}
	key     uint32
}

func (p *gatePlugin) Name() string  { return "gate" }
func (p *gatePlugin) Bind(w, h int) {}
func (p *gatePlugin) Translate(ev core.RawEvent) []core.UniEvent {
	if p.entered != nil {
		p.entered <- struct{}{}
	}
	if p.gate != nil {
		<-p.gate
	}
	return core.KeyTap(p.key)
}

// TestPumpStopsOnForwardError is the regression test for the silently-
// dropped-events bug: pumpInput used to discard forward() errors, so
// after a connection failure every subsequent event vanished without a
// trace. Now the loss is counted and the pump stops.
func TestPumpStopsOnForwardError(t *testing.T) {
	_, proxy := stack(t)
	phone := device.NewPhone("ph-1")
	defer phone.Close()
	if err := proxy.AttachInput(phone); err != nil {
		t.Fatal(err)
	}
	if err := proxy.SelectInput("ph-1"); err != nil {
		t.Fatal(err)
	}
	// Healthy path first, so the failure below is unambiguous.
	phone.PressKey("ok")
	waitCond(t, "healthy forward", func() bool { return proxy.Stats().UniversalSent >= 2 })

	// Kill the transport out from under the proxy.
	proxy.Client().Close()

	phone.PressKey("ok")
	waitCond(t, "forward error accounted", func() bool {
		return proxy.Stats().ForwardErrors > 0
	})

	// The pump must have stopped: further device events are no longer
	// consumed (rawEvents stops advancing), not silently swallowed.
	raw := proxy.Stats().RawEvents
	phone.PressKey("ok")
	time.Sleep(30 * time.Millisecond)
	if got := proxy.Stats().RawEvents; got != raw {
		t.Errorf("pump still draining after fatal error: rawEvents %d -> %d", raw, got)
	}

	// InjectBatch surfaces the failure to its caller too.
	if err := proxy.InjectBatch("ph-1", []core.RawEvent{{Kind: core.EvKeypad, Code: "ok", Down: true}}); err == nil {
		t.Error("InjectBatch after connection death returned nil error")
	}
	if proxy.Stats().UniversalSent != 2 {
		t.Errorf("events counted as sent after connection death: %d", proxy.Stats().UniversalSent)
	}
}

// TestSelectInputBarrierCoversInFlightTranslation is the regression test
// for the mid-switch leak: SelectInput used to return while an event from
// the previously selected device was still being translated, so the stale
// event was forwarded after the switch. The selection barrier now waits
// out in-flight translation (the presentMu pattern, input side).
func TestSelectInputBarrierCoversInFlightTranslation(t *testing.T) {
	_, proxy := stack(t)
	slow := &gatePlugin{entered: make(chan struct{}), gate: make(chan struct{}), key: 'a'}
	a := &fakeDevice{id: "a", plugin: slow, ch: make(chan core.RawEvent, 8)}
	b := &fakeDevice{id: "b", plugin: &gatePlugin{key: 'b'}, ch: make(chan core.RawEvent, 8)}
	if err := proxy.AttachInput(a); err != nil {
		t.Fatal(err)
	}
	if err := proxy.AttachInput(b); err != nil {
		t.Fatal(err)
	}
	if err := proxy.SelectInput("a"); err != nil {
		t.Fatal(err)
	}

	a.ch <- core.RawEvent{}
	<-slow.entered // a's event is now mid-translation

	selDone := make(chan struct{})
	go func() {
		if err := proxy.SelectInput("b"); err != nil {
			t.Error(err)
		}
		close(selDone)
	}()
	select {
	case <-selDone:
		t.Fatal("SelectInput returned while a's event was still in flight")
	case <-time.After(30 * time.Millisecond):
	}

	close(slow.gate) // translation completes, forward happens, barrier lifts
	select {
	case <-selDone:
	case <-time.After(2 * time.Second):
		t.Fatal("SelectInput did not return after in-flight event drained")
	}
	// The in-flight event was admitted under the old selection and was
	// forwarded before the switch completed — never after.
	waitCond(t, "in-flight forward", func() bool { return proxy.Stats().UniversalSent == 2 })

	// After the switch, a's events are dropped, not forwarded.
	dropped := proxy.Stats().DroppedRaw
	a.ch <- core.RawEvent{}
	waitCond(t, "post-switch drop", func() bool { return proxy.Stats().DroppedRaw > dropped })
	if got := proxy.Stats().UniversalSent; got != 2 {
		t.Errorf("deselected device forwarded after switch: uniSent = %d", got)
	}
}

// TestDetachInputBarrierCoversInFlightTranslation: like the switch
// barrier, DetachInput must not return while the detached device's event
// is still being translated/forwarded.
func TestDetachInputBarrierCoversInFlightTranslation(t *testing.T) {
	_, proxy := stack(t)
	slow := &gatePlugin{entered: make(chan struct{}), gate: make(chan struct{}), key: 'a'}
	a := &fakeDevice{id: "a", plugin: slow, ch: make(chan core.RawEvent, 8)}
	if err := proxy.AttachInput(a); err != nil {
		t.Fatal(err)
	}
	if err := proxy.SelectInput("a"); err != nil {
		t.Fatal(err)
	}
	a.ch <- core.RawEvent{}
	<-slow.entered

	detDone := make(chan struct{})
	go func() {
		if err := proxy.DetachInput("a"); err != nil {
			t.Error(err)
		}
		close(detDone)
	}()
	select {
	case <-detDone:
		t.Fatal("DetachInput returned while the device's event was in flight")
	case <-time.After(30 * time.Millisecond):
	}

	close(slow.gate)
	select {
	case <-detDone:
	case <-time.After(2 * time.Second):
		t.Fatal("DetachInput did not return after in-flight event drained")
	}
	if proxy.ActiveInput() != "" {
		t.Error("selection not cleared by detach")
	}
	// Nothing further from the detached device is ever forwarded.
	sent := proxy.Stats().UniversalSent
	a.ch <- core.RawEvent{}
	time.Sleep(30 * time.Millisecond)
	if got := proxy.Stats().UniversalSent; got != sent {
		t.Errorf("detached device still forwarding: %d -> %d", sent, got)
	}
}

// TestSelectionSnapshotUnderFlood stresses the lock-free drop path: a
// flood on a non-selected device races selection churn and stats reads
// (meaningful under -race), and every flood event is accounted as
// dropped, never forwarded.
func TestSelectionSnapshotUnderFlood(t *testing.T) {
	_, proxy := stack(t)
	flood := &fakeDevice{id: "flood", plugin: &gatePlugin{key: 'f'}, ch: make(chan core.RawEvent, 256)}
	sel := &fakeDevice{id: "sel", plugin: &gatePlugin{key: 's'}, ch: make(chan core.RawEvent, 8)}
	if err := proxy.AttachInput(flood); err != nil {
		t.Fatal(err)
	}
	if err := proxy.AttachInput(sel); err != nil {
		t.Fatal(err)
	}
	if err := proxy.SelectInput("sel"); err != nil {
		t.Fatal(err)
	}
	const n = 2000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			flood.ch <- core.RawEvent{}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = proxy.SelectInput("sel") // no-op re-select: churns the mutex path
			_ = proxy.ActiveInput()
		}
	}()
	wg.Wait()
	waitCond(t, "flood drained", func() bool { return proxy.Stats().DroppedRaw >= n })
	if got := proxy.Stats().UniversalSent; got != 0 {
		t.Errorf("non-selected flood forwarded %d events", got)
	}
}

// TestInjectBatchDropAccountingPerEvent: a batch injected for a
// non-selected device must count every event as raw + dropped, matching
// the selected path's per-event accounting.
func TestInjectBatchDropAccountingPerEvent(t *testing.T) {
	_, proxy := stack(t)
	a := &fakeDevice{id: "a", plugin: &gatePlugin{key: 'a'}, ch: make(chan core.RawEvent)}
	b := &fakeDevice{id: "b", plugin: &gatePlugin{key: 'b'}, ch: make(chan core.RawEvent)}
	if err := proxy.AttachInput(a); err != nil {
		t.Fatal(err)
	}
	if err := proxy.AttachInput(b); err != nil {
		t.Fatal(err)
	}
	if err := proxy.SelectInput("b"); err != nil {
		t.Fatal(err)
	}
	burst := make([]core.RawEvent, 64)
	if err := proxy.InjectBatch("a", burst); err != nil {
		t.Fatal(err)
	}
	st := proxy.Stats()
	if st.RawEvents != 64 || st.DroppedRaw != 64 {
		t.Errorf("raw=%d dropped=%d, want 64/64", st.RawEvents, st.DroppedRaw)
	}
	if st.UniversalSent != 0 {
		t.Errorf("non-selected batch forwarded %d events", st.UniversalSent)
	}
}

// TestInjectBatchBurstLandsInOrder drives a burst — click A, a pointer
// flood, click B, then keyboard activation — through the proxy in one
// batch and asserts the widget actions land in order with the flood
// coalesced away en route.
func TestInjectBatchBurstLandsInOrder(t *testing.T) {
	display, proxy := stack(t)
	var mu sync.Mutex
	var order []string
	mk := func(name string) *toolkit.Button {
		return toolkit.NewButton(name, func() { mu.Lock(); order = append(order, name); mu.Unlock() })
	}
	first, second := mk("first"), mk("second")
	root := toolkit.NewPanel(toolkit.VBox{Gap: 4, Padding: 4})
	root.Add(first, second)
	display.SetRoot(root)
	display.Render()

	pda := device.NewPDA("pda-1")
	defer pda.Close()
	if err := proxy.AttachInput(pda); err != nil {
		t.Fatal(err)
	}
	if err := proxy.SelectInput("pda-1"); err != nil {
		t.Fatal(err)
	}

	// PDA coordinates are half the desktop's (the plug-in upscales 2x).
	center := func(b *toolkit.Button) (int, int) {
		r := b.Bounds()
		return (r.X + r.W/2) / 2, (r.Y + r.H/2) / 2
	}
	ax, ay := center(first)
	bx, by := center(second)

	burst := []core.RawEvent{
		{Kind: core.EvStylus, X: ax, Y: ay, Down: true},
		{Kind: core.EvStylus, X: ax, Y: ay, Down: false},
	}
	// A hover flood between the clicks: pure moves, all coalescable.
	for i := 0; i < 64; i++ {
		burst = append(burst, core.RawEvent{Kind: core.EvStylus, X: ax + i%8, Y: ay, Down: false})
	}
	burst = append(burst,
		core.RawEvent{Kind: core.EvStylus, X: bx, Y: by, Down: true},
		core.RawEvent{Kind: core.EvStylus, X: bx, Y: by, Down: false},
	)
	sent0 := proxy.Stats().UniversalSent
	if err := proxy.InjectBatch("pda-1", burst); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "both clicks", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) == 2
	})
	mu.Lock()
	if order[0] != "first" || order[1] != "second" {
		t.Errorf("click order = %v", order)
	}
	mu.Unlock()

	st := proxy.Stats()
	if st.EventsCoalesced < 60 {
		t.Errorf("flood not coalesced: coalesced = %d", st.EventsCoalesced)
	}
	if sent := st.UniversalSent - sent0; sent > 8 {
		t.Errorf("burst shipped %d events; flood should have collapsed", sent)
	}
	if st.BatchesFlushed == 0 {
		t.Error("no batched flush recorded")
	}
}
