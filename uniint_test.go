package uniint

import (
	"testing"
	"time"

	"uniint/internal/appliance"
	"uniint/internal/core"
	"uniint/internal/device"
	"uniint/internal/havi/fcm"
	"uniint/internal/situation"
)

func newLampSession(t *testing.T) (*Session, *appliance.Lamp) {
	t.Helper()
	lamp := appliance.NewLamp("Desk Lamp")
	s, err := NewSession(Options{Appliances: []appliance.Appliance{lamp}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, lamp
}

func waitPower(t *testing.T, lamp *appliance.Lamp, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if v, _ := lamp.Bulb().Get(fcm.CtlPower); v == want {
			return
		}
		if time.Now().After(deadline) {
			v, _ := lamp.Bulb().Get(fcm.CtlPower)
			t.Fatalf("%s: lamp power = %d, want %d", what, v, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitFrame(t *testing.T, wait func(int64) core.Frame, n int64, what string) core.Frame {
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

// TestC1IndependentDeviceChoice reproduces the paper's first
// characteristic: "input interaction devices and output interaction
// devices are chosen independently" — here a cellular phone keypad as
// input with the television screen as output.
func TestC1IndependentDeviceChoice(t *testing.T) {
	s, lamp := newLampSession(t)

	phone := device.NewPhone("phone-1")
	tv := device.NewTVDisplay("tv-1")
	defer phone.Close()
	if err := s.Proxy.AttachInput(phone); err != nil {
		t.Fatal(err)
	}
	if err := s.Proxy.AttachOutput(tv); err != nil {
		t.Fatal(err)
	}
	if err := s.Proxy.SelectInput("phone-1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Proxy.SelectOutput("tv-1"); err != nil {
		t.Fatal(err)
	}
	if s.Proxy.ActiveInput() != "phone-1" || s.Proxy.ActiveOutput() != "tv-1" {
		t.Fatal("independent selection failed")
	}

	// The TV shows the control panel...
	f := waitFrame(t, tv.WaitFrames, 1, "TV frame")
	if f.W != device.TVWidth || f.RGB == nil {
		t.Fatalf("tv frame = %+v", f)
	}

	// ...and the phone keypad drives it: focus starts on the lamp's power
	// toggle; OK flips it.
	phone.PressKey("ok")
	waitPower(t, lamp, 1, "phone-controlled power on")

	// The resulting GUI change flows back out to the TV.
	waitFrame(t, tv.WaitFrames, int64(f.Seq)+1, "TV repaint after toggle")
}

// TestC2DynamicSituationSwitch reproduces the kitchen scenario: the user
// controls an appliance with the phone; both hands become busy; the
// situation engine switches input to voice and the session continues
// uninterrupted.
func TestC2DynamicSituationSwitch(t *testing.T) {
	s, lamp := newLampSession(t)

	phone := device.NewPhone("phone-1")
	voice := device.NewVoiceInput("voice-1")
	defer phone.Close()
	defer voice.Close()
	if err := s.Proxy.AttachInput(phone); err != nil {
		t.Fatal(err)
	}
	if err := s.Proxy.AttachInput(voice); err != nil {
		t.Fatal(err)
	}
	if err := s.Proxy.AttachOutput(device.NewTVDisplay("tv-1")); err != nil {
		t.Fatal(err)
	}

	eng := situation.NewEngine(s.Proxy, situation.DefaultRules())

	// Cooking, hands free: phone selected.
	d := eng.SetSituation(situation.Situation{Location: "kitchen", Activity: "cooking"})
	if d.InputClass != "phone" {
		t.Fatalf("initial decision = %+v", d)
	}
	phone.PressKey("ok")
	waitPower(t, lamp, 1, "phone phase")

	// Hands become busy: the engine must switch to voice.
	d = eng.SetSituation(situation.Situation{Location: "kitchen", Activity: "cooking", HandsBusy: true})
	if d.InputClass != "voice" || d.InputRule != "hands-busy-voice" {
		t.Fatalf("busy decision = %+v", d)
	}
	if s.Proxy.ActiveInput() != "voice-1" {
		t.Fatalf("active input = %q", s.Proxy.ActiveInput())
	}

	// The same session keeps working through the new device.
	voice.Say("toggle")
	waitPower(t, lamp, 0, "voice phase")

	// The phone is no longer heard.
	phone.PressKey("ok")
	time.Sleep(20 * time.Millisecond)
	waitPower(t, lamp, 0, "phone silenced")

	if s.Proxy.Stats().InputSwitches < 2 {
		t.Errorf("switches = %d", s.Proxy.Stats().InputSwitches)
	}
}

// TestC3UnmodifiedApplication reproduces the third characteristic: the
// same application, written purely against the GUI toolkit, is driven by
// four different interaction devices without modification.
func TestC3UnmodifiedApplication(t *testing.T) {
	s, lamp := newLampSession(t)

	pda := device.NewPDA("pda-1")
	phone := device.NewPhone("phone-1")
	voice := device.NewVoiceInput("voice-1")
	remote := device.NewRemoteControl("remote-1")
	defer pda.Close()
	defer phone.Close()
	defer voice.Close()
	defer remote.Close()

	for _, in := range []core.InputDevice{pda, phone, voice, remote} {
		if err := s.Proxy.AttachInput(in); err != nil {
			t.Fatal(err)
		}
	}

	// Each device toggles the lamp once; power alternates 1,0,1,0.
	// Keyboard-driven devices activate the focused toggle.
	steps := []struct {
		id   string
		act  func()
		want int
	}{
		{"phone-1", func() { phone.PressKey("ok") }, 1},
		{"voice-1", func() { voice.Say("toggle") }, 0},
		{"remote-1", func() { remote.Press("ok") }, 1},
	}
	for _, st := range steps {
		if err := s.Proxy.SelectInput(st.id); err != nil {
			t.Fatal(err)
		}
		st.act()
		waitPower(t, lamp, st.want, st.id)
	}

	// The PDA uses the pointer path: tap the toggle's location. Find it
	// via the display (the app itself stays untouched).
	if err := s.Proxy.SelectInput("pda-1"); err != nil {
		t.Fatal(err)
	}
	s.Display.Render()
	foc := s.Display.Focus()
	if foc == nil {
		t.Fatal("no focused widget")
	}
	b := foc.Bounds()
	// Desktop 640×480 → PDA 320×240 is a 2:1 mapping.
	pda.Tap((b.X+4)/2, (b.Y+4)/2)
	waitPower(t, lamp, 0, "pda-1")
}

// TestSessionWithStandardHome smoke-tests the full five-appliance
// household through the facade.
func TestSessionWithStandardHome(t *testing.T) {
	home := []appliance.Appliance{
		appliance.NewTV("Living TV"),
		appliance.NewVCR("Living VCR"),
		appliance.NewAmplifier("Hi-Fi"),
		appliance.NewAircon("Bedroom AC"),
		appliance.NewLamp("Desk Lamp"),
	}
	s, err := NewSession(Options{Appliances: home})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.WaitIdle()

	if got := s.App.PanelInventory(); len(got) != 5 {
		t.Fatalf("panels = %v", got)
	}

	tv := device.NewTVDisplay("tv-out")
	if err := s.Proxy.AttachOutput(tv); err != nil {
		t.Fatal(err)
	}
	if err := s.Proxy.SelectOutput("tv-out"); err != nil {
		t.Fatal(err)
	}
	f := waitFrame(t, tv.WaitFrames, 1, "household frame")
	// The frame must contain actual GUI content (not be blank).
	distinct := map[uint32]bool{}
	for _, c := range f.RGB.Pix() {
		distinct[uint32(c)] = true
	}
	if len(distinct) < 4 {
		t.Errorf("frame looks blank: %d distinct colors", len(distinct))
	}
}

func TestSessionCloseIdempotent(t *testing.T) {
	s, _ := newLampSession(t)
	s.Close()
	s.Close()
}
