package appliance

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"uniint/internal/havi"
	"uniint/internal/havi/fcm"
	"uniint/internal/leakcheck"
)

func TestStandardHome(t *testing.T) {
	leakcheck.Check(t, 0)
	h, err := StandardHome()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	h.Network().WaitIdle()

	if got := len(h.Appliances()); got != 5 {
		t.Fatalf("appliances = %d", got)
	}
	dcms := h.Network().Registry().Query(map[string]string{"type": "dcm"})
	if len(dcms) != 5 {
		t.Fatalf("registered DCMs = %d", len(dcms))
	}
	// The TV contributes three FCMs, the VCR two, others one each.
	fcms := h.Network().Registry().Query(map[string]string{"type": "fcm"})
	if len(fcms) != 3+2+1+1+1 {
		t.Fatalf("registered FCMs = %d", len(fcms))
	}
}

func TestHomeRemoveAndReadd(t *testing.T) {
	leakcheck.Check(t, 0)
	h := NewHome()
	defer h.Close()
	lamp := NewLamp("L1")
	if _, err := h.Add(lamp); err != nil {
		t.Fatal(err)
	}
	h.Network().WaitIdle()
	if h.Network().Registry().Count() != 2 {
		t.Fatalf("count = %d", h.Network().Registry().Count())
	}
	h.Remove(lamp)
	h.Network().WaitIdle()
	if h.Network().Registry().Count() != 0 {
		t.Fatalf("count after remove = %d", h.Network().Registry().Count())
	}
	// Re-adding keeps the GUID.
	guid1 := lamp.DCM().GUID()
	guid2, err := h.Add(lamp)
	if err != nil {
		t.Fatal(err)
	}
	if guid1 != guid2 {
		t.Errorf("guid changed across replug: %s → %s", guid1, guid2)
	}
}

func TestAdvanceDrivesMechanics(t *testing.T) {
	leakcheck.Check(t, 0)
	h := NewHome()
	defer h.Close()
	vcr := NewVCR("V")
	ac := NewAircon("A")
	if _, err := h.Add(vcr); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Add(ac); err != nil {
		t.Fatal(err)
	}
	vcr.Deck().Set(fcm.CtlPower, 1)
	vcr.Deck().Do(fcm.VCRLoad)
	vcr.Deck().Do(fcm.VCRPlay)
	ac.Unit().Set(fcm.CtlPower, 1)
	ac.Unit().Set(fcm.AirconMode, fcm.ModeCool)
	ac.Unit().Set(fcm.AirconTarget, 20)

	h.Advance(8)
	if c, _ := vcr.Deck().Get(fcm.VCRCounter); c != 8 {
		t.Errorf("counter = %d", c)
	}
	if r, _ := ac.Unit().Get(fcm.AirconRoom); r != 20 {
		t.Errorf("room = %d", r)
	}
	if m, _ := vcr.Clock().Get(fcm.ClockMinute); m != 8 {
		t.Errorf("minute = %d", m)
	}
}

func TestTickerLifecycle(t *testing.T) {
	leakcheck.Check(t, 0)
	h := NewHome()
	defer h.Close()
	vcr := NewVCR("V")
	if _, err := h.Add(vcr); err != nil {
		t.Fatal(err)
	}
	vcr.Deck().Set(fcm.CtlPower, 1)
	vcr.Deck().Do(fcm.VCRLoad)
	vcr.Deck().Do(fcm.VCRPlay)

	h.StartTicker(time.Millisecond)
	h.StartTicker(time.Millisecond) // double start is a no-op
	deadline := time.Now().Add(2 * time.Second)
	for {
		if c, _ := vcr.Deck().Get(fcm.VCRCounter); c >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ticker did not advance the simulation")
		}
		time.Sleep(time.Millisecond)
	}
	h.StopTicker()
	h.StopTicker() // double stop is a no-op
	c1, _ := vcr.Deck().Get(fcm.VCRCounter)
	time.Sleep(10 * time.Millisecond)
	c2, _ := vcr.Deck().Get(fcm.VCRCounter)
	if c1 != c2 {
		t.Error("simulation advanced after StopTicker")
	}
}

// TestStopTickerRacingFire stops a 1 ms ticker 200 times just as it
// fires, and reads the stacks after each StopTicker: a fire that began
// too late to be stopped has returned by then too, whether it found the
// ticker stopped or ran its advance first.
func TestStopTickerRacingFire(t *testing.T) {
	h := NewHome()
	defer h.Close()
	for i := 0; i < 200; i++ {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			leakcheck.Check(t, 0)
			h.StartTicker(time.Millisecond)
			for armed := time.Now(); time.Since(armed) < time.Millisecond; {
				runtime.Gosched()
			}
			h.StopTicker()
		})
	}
}

func TestApplianceClassesAndFCMKinds(t *testing.T) {
	leakcheck.Check(t, 0)
	tests := []struct {
		a     Appliance
		class string
		kinds []string
	}{
		{NewTV("t"), "tv", []string{"tuner", "display", "amplifier"}},
		{NewVCR("v"), "vcr", []string{"vcr", "clock"}},
		{NewAmplifier("a"), "amplifier", []string{"amplifier"}},
		{NewAircon("c"), "aircon", []string{"aircon"}},
		{NewLamp("l"), "lamp", []string{"lamp"}},
	}
	for _, tt := range tests {
		if tt.a.Class() != tt.class {
			t.Errorf("%s class = %q", tt.a.Name(), tt.a.Class())
		}
		fcms := tt.a.DCM().FCMs()
		if len(fcms) != len(tt.kinds) {
			t.Errorf("%s has %d FCMs, want %d", tt.a.Name(), len(fcms), len(tt.kinds))
			continue
		}
		for i, k := range tt.kinds {
			if fcms[i].Kind() != k {
				t.Errorf("%s fcm %d = %q, want %q", tt.a.Name(), i, fcms[i].Kind(), k)
			}
		}
	}
}

func TestControlThroughMiddleware(t *testing.T) {
	leakcheck.Check(t, 0)
	// End-to-end: discover the lamp via registry, flip power via message.
	h := NewHome()
	defer h.Close()
	lamp := NewLamp("Desk")
	if _, err := h.Add(lamp); err != nil {
		t.Fatal(err)
	}
	h.Network().WaitIdle()

	entries := h.Network().Registry().Query(map[string]string{"type": "fcm", "kind": "lamp"})
	if len(entries) != 1 {
		t.Fatalf("lamp FCMs found = %d", len(entries))
	}
	if _, err := h.Network().Messages().Call(havi.Message{
		Dst: entries[0].SEID, Op: havi.OpSet, Key: fcm.CtlPower, Value: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if v, _ := lamp.Bulb().Get(fcm.CtlPower); v != 1 {
		t.Error("lamp did not turn on via middleware")
	}
}
