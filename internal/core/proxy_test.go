package core_test

import (
	"errors"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"uniint/internal/core"
	"uniint/internal/device"
	"uniint/internal/toolkit"
	"uniint/internal/uniserver"
)

// stack wires display ↔ server ↔ proxy over an in-process pipe.
func stack(t *testing.T) (*toolkit.Display, *core.Proxy) {
	t.Helper()
	display := toolkit.NewDisplay(640, 480)
	srv := uniserver.New(display, "proxy test", nil)
	sc, cc := net.Pipe()
	serverDone := make(chan error, 1)
	go func() { serverDone <- srv.Attach(sc) }()

	proxy, err := core.Dial(cc)
	if err != nil {
		t.Fatal(err)
	}
	proxyDone := make(chan error, 1)
	go func() { proxyDone <- proxy.Run() }()

	t.Cleanup(func() {
		proxy.Close()
		srv.Close()
		select {
		case <-proxyDone:
		case <-time.After(2 * time.Second):
			t.Error("proxy run loop stuck")
		}
		select {
		case <-serverDone:
		case <-time.After(2 * time.Second):
			t.Error("server handler stuck")
		}
	})
	return display, proxy
}

// buttonPanel builds a root with one button and returns it plus a click
// counter accessor.
func buttonPanel(display *toolkit.Display, label string) (*toolkit.Button, func() int) {
	var mu sync.Mutex
	clicks := 0
	btn := toolkit.NewButton(label, func() { mu.Lock(); clicks++; mu.Unlock() })
	root := toolkit.NewPanel(toolkit.VBox{Gap: 4, Padding: 4})
	root.Add(btn)
	display.SetRoot(root)
	display.Render()
	return btn, func() int { mu.Lock(); defer mu.Unlock(); return clicks }
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitFrames(t *testing.T, what string, wait func(int64) core.Frame, n int64) core.Frame {
	t.Helper()
	done := make(chan core.Frame, 1)
	go func() { done <- wait(n) }()
	select {
	case f := <-done:
		return f
	case <-time.After(2 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		return core.Frame{}
	}
}

func TestAttachErrors(t *testing.T) {
	_, proxy := stack(t)
	pda := device.NewPDA("pda-1")
	defer pda.Close()
	if err := proxy.AttachInput(pda); err != nil {
		t.Fatal(err)
	}
	if err := proxy.AttachInput(pda); !errors.Is(err, core.ErrDuplicateID) {
		t.Errorf("duplicate attach = %v", err)
	}
	if err := proxy.SelectInput("nope"); !errors.Is(err, core.ErrUnknownDevice) {
		t.Errorf("select unknown = %v", err)
	}
	if err := proxy.DetachInput("nope"); !errors.Is(err, core.ErrUnknownDevice) {
		t.Errorf("detach unknown = %v", err)
	}
	if err := proxy.SelectInputByClass("voice"); !errors.Is(err, core.ErrNoSuchClass) {
		t.Errorf("select class = %v", err)
	}
	if err := proxy.AttachOutput(device.NewTVDisplay("tv-1")); err != nil {
		t.Fatal(err)
	}
	if err := proxy.AttachOutput(device.NewTVDisplay("tv-1")); !errors.Is(err, core.ErrDuplicateID) {
		t.Errorf("duplicate output = %v", err)
	}
}

func TestPDATapClicksButton(t *testing.T) {
	display, proxy := stack(t)
	btn, clicks := buttonPanel(display, "Lamp")

	pda := device.NewPDA("pda-1")
	defer pda.Close()
	if err := proxy.AttachInput(pda); err != nil {
		t.Fatal(err)
	}
	if err := proxy.SelectInput("pda-1"); err != nil {
		t.Fatal(err)
	}

	// The PDA panel is half the desktop in each dimension: tap at half
	// the button's desktop coordinates.
	b := btn.Bounds()
	pda.Tap((b.X+b.W/2)/2, (b.Y+b.H/2)/2)
	waitCond(t, "tap click", func() bool { return clicks() == 1 })

	st := proxy.Stats()
	if st.RawEvents < 2 || st.UniversalSent < 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestNonSelectedInputIsDropped(t *testing.T) {
	display, proxy := stack(t)
	_, clicks := buttonPanel(display, "X")

	pda := device.NewPDA("pda-1")
	remote := device.NewRemoteControl("rem-1")
	defer pda.Close()
	defer remote.Close()
	if err := proxy.AttachInput(pda); err != nil {
		t.Fatal(err)
	}
	if err := proxy.AttachInput(remote); err != nil {
		t.Fatal(err)
	}
	if err := proxy.SelectInput("rem-1"); err != nil {
		t.Fatal(err)
	}

	// PDA taps go nowhere while the remote is selected.
	pda.Tap(10, 10)
	waitCond(t, "drop accounting", func() bool { return proxy.Stats().DroppedRaw >= 2 })
	if clicks() != 0 {
		t.Error("dropped events reached the GUI")
	}
	// Remote OK clicks the focused button.
	remote.Press("ok")
	waitCond(t, "remote click", func() bool { return clicks() == 1 })
}

func TestVoiceDrivesFocusNavigation(t *testing.T) {
	display, proxy := stack(t)
	var mu sync.Mutex
	hits := map[string]int{}
	mk := func(name string) *toolkit.Button {
		return toolkit.NewButton(name, func() { mu.Lock(); hits[name]++; mu.Unlock() })
	}
	root := toolkit.NewPanel(toolkit.VBox{Gap: 4, Padding: 4})
	root.Add(mk("first"), mk("second"))
	display.SetRoot(root)
	display.Render()

	voice := device.NewVoiceInput("v-1")
	defer voice.Close()
	if err := proxy.AttachInput(voice); err != nil {
		t.Fatal(err)
	}
	if err := proxy.SelectInputByClass("voice"); err != nil {
		t.Fatal(err)
	}

	voice.Say("next")   // focus: first → second
	voice.Say("select") // activate second
	waitCond(t, "voice activation", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return hits["second"] == 1
	})
	mu.Lock()
	if hits["first"] != 0 {
		t.Errorf("hits = %v", hits)
	}
	mu.Unlock()
}

func TestOutputConversionPipeline(t *testing.T) {
	display, proxy := stack(t)
	buttonPanel(display, "content")

	pda := device.NewPDA("pda-1")
	defer pda.Close()
	if err := proxy.AttachOutput(pda); err != nil {
		t.Fatal(err)
	}
	if err := proxy.SelectOutput("pda-1"); err != nil {
		t.Fatal(err)
	}
	f := waitFrames(t, "pda frame", pda.WaitFrames, 1)
	if f.W != device.PDAWidth || f.H != device.PDAHeight || f.RGB == nil {
		t.Fatalf("frame = %dx%d", f.W, f.H)
	}
	// The pixel format negotiated down to 16bpp.
	if pf := proxy.Client(); pf.BytesReceived() == 0 {
		t.Error("no protocol traffic recorded")
	}
}

func TestDynamicOutputSwitching(t *testing.T) {
	display, proxy := stack(t)
	buttonPanel(display, "content")

	pda := device.NewPDA("pda-1")
	phone := device.NewPhone("ph-1")
	tv := device.NewTVDisplay("tv-1")
	defer pda.Close()
	defer phone.Close()
	if err := proxy.AttachOutput(pda); err != nil {
		t.Fatal(err)
	}
	if err := proxy.AttachOutput(phone); err != nil {
		t.Fatal(err)
	}
	if err := proxy.AttachOutput(tv); err != nil {
		t.Fatal(err)
	}

	if err := proxy.SelectOutput("pda-1"); err != nil {
		t.Fatal(err)
	}
	f := waitFrames(t, "pda frame", pda.WaitFrames, 1)
	if f.RGB == nil {
		t.Fatal("pda frame should be RGB")
	}

	// Switch to the phone mid-session: a 1-bit frame must arrive without
	// restarting anything.
	if err := proxy.SelectOutput("ph-1"); err != nil {
		t.Fatal(err)
	}
	f = waitFrames(t, "phone frame", phone.WaitFrames, 1)
	if f.Bits == nil || f.W != device.PhoneWidth {
		t.Fatalf("phone frame = %+v", f)
	}

	// And to the TV.
	if err := proxy.SelectOutput("tv-1"); err != nil {
		t.Fatal(err)
	}
	f = waitFrames(t, "tv frame", tv.WaitFrames, 1)
	if f.RGB == nil || f.W != device.TVWidth {
		t.Fatalf("tv frame = %+v", f)
	}

	if proxy.Stats().OutputSwitches != 3 {
		t.Errorf("output switches = %d", proxy.Stats().OutputSwitches)
	}
	// Re-selecting the active device is not a switch.
	if err := proxy.SelectOutput("tv-1"); err != nil {
		t.Fatal(err)
	}
	if proxy.Stats().OutputSwitches != 3 {
		t.Error("re-select counted as switch")
	}
}

func TestDynamicInputSwitchingMidSession(t *testing.T) {
	// The paper's C2 scenario: the user switches from phone keypad to
	// voice without disturbing the session.
	display, proxy := stack(t)
	_, clicks := buttonPanel(display, "Play")

	phone := device.NewPhone("ph-1")
	voice := device.NewVoiceInput("v-1")
	defer phone.Close()
	defer voice.Close()
	if err := proxy.AttachInput(phone); err != nil {
		t.Fatal(err)
	}
	if err := proxy.AttachInput(voice); err != nil {
		t.Fatal(err)
	}

	if err := proxy.SelectInput("ph-1"); err != nil {
		t.Fatal(err)
	}
	phone.PressKey("ok")
	waitCond(t, "phone click", func() bool { return clicks() == 1 })

	// Hands become busy: switch to voice.
	if err := proxy.SelectInputByClass("voice"); err != nil {
		t.Fatal(err)
	}
	if proxy.ActiveInput() != "v-1" {
		t.Fatalf("active input = %q", proxy.ActiveInput())
	}
	voice.Say("push")
	waitCond(t, "voice click", func() bool { return clicks() == 2 })

	// The phone is no longer heard.
	phone.PressKey("ok")
	time.Sleep(20 * time.Millisecond)
	if clicks() != 2 {
		t.Error("deselected phone still active")
	}
	if proxy.Stats().InputSwitches != 2 {
		t.Errorf("input switches = %d", proxy.Stats().InputSwitches)
	}
}

func TestDetachSelectedInputClearsSelection(t *testing.T) {
	_, proxy := stack(t)
	pda := device.NewPDA("pda-1")
	defer pda.Close()
	if err := proxy.AttachInput(pda); err != nil {
		t.Fatal(err)
	}
	if err := proxy.SelectInput("pda-1"); err != nil {
		t.Fatal(err)
	}
	if err := proxy.DetachInput("pda-1"); err != nil {
		t.Fatal(err)
	}
	if proxy.ActiveInput() != "" {
		t.Error("selection should clear on detach")
	}
}

func TestInjectBypassesChannel(t *testing.T) {
	display, proxy := stack(t)
	_, clicks := buttonPanel(display, "X")
	remote := device.NewRemoteControl("r-1")
	defer remote.Close()
	if err := proxy.AttachInput(remote); err != nil {
		t.Fatal(err)
	}
	if err := proxy.SelectInput("r-1"); err != nil {
		t.Fatal(err)
	}
	if err := proxy.InjectBatch("r-1", []core.RawEvent{{Kind: core.EvButton, Code: "ok", Down: true}}); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "injected click", func() bool { return clicks() == 1 })
	if err := proxy.InjectBatch("ghost", []core.RawEvent{{}}); !errors.Is(err, core.ErrUnknownDevice) {
		t.Errorf("inject unknown = %v", err)
	}
}

func TestGUIUpdateFlowsToSelectedDisplay(t *testing.T) {
	// A server-side GUI change must reach the selected output device
	// without any input event (the appliance pushed new state).
	display, proxy := stack(t)
	lbl := toolkit.NewLabel("Counter: 0")
	root := toolkit.NewPanel(toolkit.VBox{})
	root.Add(lbl)
	display.SetRoot(root)

	tv := device.NewTVDisplay("tv-1")
	if err := proxy.AttachOutput(tv); err != nil {
		t.Fatal(err)
	}
	if err := proxy.SelectOutput("tv-1"); err != nil {
		t.Fatal(err)
	}
	first := waitFrames(t, "initial frame", tv.WaitFrames, 1)

	display.Update(func() { lbl.SetText("Counter: 42") })
	f := waitFrames(t, "updated frame", tv.WaitFrames, int64(first.Seq)+1)

	// The frames must differ (text changed).
	if f.RGB.Equal(first.RGB) {
		t.Error("display change did not propagate to the device")
	}
}

func TestProxyCloseIsIdempotent(t *testing.T) {
	_, proxy := stack(t)
	pda := device.NewPDA("pda-1")
	defer pda.Close()
	if err := proxy.AttachInput(pda); err != nil {
		t.Fatal(err)
	}
	proxy.Close()
	proxy.Close()
	if err := proxy.AttachInput(device.NewPDA("pda-2")); !errors.Is(err, core.ErrProxyClosed) {
		t.Errorf("attach after close = %v", err)
	}
}

func TestOutputMirroring(t *testing.T) {
	display, proxy := stack(t)
	buttonPanel(display, "shared")

	tv := device.NewTVDisplay("tv-1")
	pda := device.NewPDA("pda-1")
	defer pda.Close()
	if err := proxy.AttachOutput(tv); err != nil {
		t.Fatal(err)
	}
	if err := proxy.AttachOutput(pda); err != nil {
		t.Fatal(err)
	}
	// Mirror before attach must fail.
	if err := proxy.AddMirror("ghost"); !errors.Is(err, core.ErrUnknownDevice) {
		t.Errorf("mirror unknown = %v", err)
	}
	if err := proxy.SelectOutput("tv-1"); err != nil {
		t.Fatal(err)
	}
	if err := proxy.AddMirror("pda-1"); err != nil {
		t.Fatal(err)
	}
	if got := proxy.Mirrors(); len(got) != 1 || got[0] != "pda-1" {
		t.Fatalf("mirrors = %v", got)
	}

	// One display change reaches BOTH devices, each in its own format.
	display.InvalidateAll()
	pdaFrame := waitFrames(t, "pda mirror frame", pda.WaitFrames, 1)
	tvFrame := waitFrames(t, "tv frame", tv.WaitFrames, 1)
	if tvFrame.W != device.TVWidth || pdaFrame.W != device.PDAWidth {
		t.Errorf("frame sizes: tv=%d pda=%d", tvFrame.W, pdaFrame.W)
	}

	// Removing the mirror stops its feed.
	proxy.RemoveMirror("pda-1")
	before, tvSeen := pda.FrameCount(), tv.FrameCount()
	display.InvalidateAll()
	waitFrames(t, "tv frame after unmirror", tv.WaitFrames, tvSeen+1)
	if pda.FrameCount() != before {
		t.Error("removed mirror still receiving frames")
	}
}

func TestMirrorOfActiveDeviceNotDuplicated(t *testing.T) {
	display, proxy := stack(t)
	buttonPanel(display, "x")
	tv := device.NewTVDisplay("tv-1")
	if err := proxy.AttachOutput(tv); err != nil {
		t.Fatal(err)
	}
	if err := proxy.SelectOutput("tv-1"); err != nil {
		t.Fatal(err)
	}
	if err := proxy.AddMirror("tv-1"); err != nil { // mirroring the primary
		t.Fatal(err)
	}
	waitFrames(t, "frame", tv.WaitFrames, 1)
	// Each update adds exactly one frame, not two.
	c1 := tv.FrameCount()
	display.InvalidateAll()
	waitFrames(t, "frame of the update", tv.WaitFrames, c1+1)
	proxy.RemoveMirror("nobody") // barrier: the update's present has finished
	if tv.FrameCount() != c1+1 {
		t.Errorf("primary mirrored twice: %d -> %d", c1, tv.FrameCount())
	}
}

func TestDetachOutputAndIDs(t *testing.T) {
	_, proxy := stack(t)
	tv := device.NewTVDisplay("tv-1")
	pda := device.NewPDA("pda-1")
	defer pda.Close()
	if err := proxy.AttachOutput(tv); err != nil {
		t.Fatal(err)
	}
	if err := proxy.AttachOutput(pda); err != nil {
		t.Fatal(err)
	}
	if err := proxy.AttachInput(pda); err != nil {
		t.Fatal(err)
	}
	if got := len(proxy.OutputIDs()); got != 2 {
		t.Errorf("outputs = %d", got)
	}
	if got := proxy.InputIDs(); len(got) != 1 || got[0] != "pda-1" {
		t.Errorf("inputs = %v", got)
	}
	if err := proxy.SelectOutputByClass("tv"); err != nil {
		t.Fatal(err)
	}
	if proxy.ActiveOutput() != "tv-1" {
		t.Errorf("active = %q", proxy.ActiveOutput())
	}
	if err := proxy.DetachOutput("tv-1"); err != nil {
		t.Fatal(err)
	}
	if proxy.ActiveOutput() != "" {
		t.Error("detach should clear active output")
	}
	if err := proxy.DetachOutput("tv-1"); !errors.Is(err, core.ErrUnknownDevice) {
		t.Errorf("double detach = %v", err)
	}
	if err := proxy.SelectOutputByClass("tv"); !errors.Is(err, core.ErrNoSuchClass) {
		t.Errorf("select gone class = %v", err)
	}
}

// TestDeviceListsSorted: the device and mirror lists come back in id
// order, whatever order the devices were attached in.
func TestDeviceListsSorted(t *testing.T) {
	_, proxy := stack(t)
	ids := []string{"pda-7", "pda-2", "pda-9", "pda-0", "pda-5", "pda-3"}
	for _, id := range ids {
		pda := device.NewPDA(id)
		defer pda.Close()
		if err := proxy.AttachInput(pda); err != nil {
			t.Fatal(err)
		}
		if err := proxy.AttachOutput(pda); err != nil {
			t.Fatal(err)
		}
		if err := proxy.AddMirror(id); err != nil {
			t.Fatal(err)
		}
	}
	want := slices.Sorted(slices.Values(ids))
	for i := 0; i < 20; i++ {
		for name, got := range map[string][]string{
			"InputIDs": proxy.InputIDs(), "OutputIDs": proxy.OutputIDs(), "Mirrors": proxy.Mirrors(),
		} {
			if !slices.Equal(got, want) {
				t.Fatalf("call %d: %s = %v, want %v", i, name, got, want)
			}
		}
	}
}
