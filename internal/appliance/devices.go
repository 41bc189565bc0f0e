package appliance

import (
	"fmt"

	"uniint/internal/havi"
	"uniint/internal/havi/fcm"
)

// TV is a television: tuner + display + built-in speaker amplifier.
type TV struct {
	name    string
	dcm     *havi.DCM
	tuner   *havi.BaseFCM
	display *havi.BaseFCM
	speaker *havi.BaseFCM
}

var _ Appliance = (*TV)(nil)

// NewTV builds a television simulator.
func NewTV(name string) *TV {
	t := &TV{
		name:    name,
		dcm:     havi.NewDCM(name, "tv"),
		tuner:   fcm.NewTuner(),
		display: fcm.NewAVDisplay(),
		speaker: fcm.NewAmplifier(),
	}
	t.dcm.AddFCM(t.tuner)
	t.dcm.AddFCM(t.display)
	t.dcm.AddFCM(t.speaker)
	return t
}

// Name implements Appliance.
func (t *TV) Name() string { return t.name }

// Class implements Appliance.
func (t *TV) Class() string { return "tv" }

// DCM implements Appliance.
func (t *TV) DCM() *havi.DCM { return t.dcm }

// Tick implements Appliance; a TV has no time-dependent mechanics.
func (t *TV) Tick() {}

// Tuner exposes the tuner FCM (tests and scenario scripts).
func (t *TV) Tuner() *havi.BaseFCM { return t.tuner }

// VCR is a video cassette recorder with a transport deck and timer clock.
type VCR struct {
	name  string
	dcm   *havi.DCM
	deck  *havi.BaseFCM
	clock *havi.BaseFCM
}

var _ Appliance = (*VCR)(nil)

// NewVCR builds a VCR simulator.
func NewVCR(name string) *VCR {
	v := &VCR{
		name:  name,
		dcm:   havi.NewDCM(name, "vcr"),
		deck:  fcm.NewVCR(),
		clock: fcm.NewClock(),
	}
	v.dcm.AddFCM(v.deck)
	v.dcm.AddFCM(v.clock)
	return v
}

// Name implements Appliance.
func (v *VCR) Name() string { return v.name }

// Class implements Appliance.
func (v *VCR) Class() string { return "vcr" }

// DCM implements Appliance.
func (v *VCR) DCM() *havi.DCM { return v.dcm }

// Tick implements Appliance: the tape moves, the clock advances, and an
// armed timer starts recording when its programmed time arrives.
func (v *VCR) Tick() {
	fcm.TickVCR(v.deck)
	fcm.TickClock(v.clock)
	fcm.CheckVCRTimer(v.deck, v.clock)
}

// Deck exposes the transport FCM.
func (v *VCR) Deck() *havi.BaseFCM { return v.deck }

// Clock exposes the timer clock FCM.
func (v *VCR) Clock() *havi.BaseFCM { return v.clock }

// Amplifier is a standalone audio amplifier.
type Amplifier struct {
	name string
	dcm  *havi.DCM
	amp  *havi.BaseFCM
}

var _ Appliance = (*Amplifier)(nil)

// NewAmplifier builds an amplifier simulator.
func NewAmplifier(name string) *Amplifier {
	a := &Amplifier{
		name: name,
		dcm:  havi.NewDCM(name, "amplifier"),
		amp:  fcm.NewAmplifier(),
	}
	a.dcm.AddFCM(a.amp)
	return a
}

// Name implements Appliance.
func (a *Amplifier) Name() string { return a.name }

// Class implements Appliance.
func (a *Amplifier) Class() string { return "amplifier" }

// DCM implements Appliance.
func (a *Amplifier) DCM() *havi.DCM { return a.dcm }

// Tick implements Appliance; amplifiers have no mechanics.
func (a *Amplifier) Tick() {}

// Amp exposes the amplifier FCM.
func (a *Amplifier) Amp() *havi.BaseFCM { return a.amp }

// Aircon is an air conditioner with a thermal simulation.
type Aircon struct {
	name string
	dcm  *havi.DCM
	unit *havi.BaseFCM
}

var _ Appliance = (*Aircon)(nil)

// NewAircon builds an air-conditioner simulator.
func NewAircon(name string) *Aircon {
	a := &Aircon{
		name: name,
		dcm:  havi.NewDCM(name, "aircon"),
		unit: fcm.NewAircon(),
	}
	a.dcm.AddFCM(a.unit)
	return a
}

// Name implements Appliance.
func (a *Aircon) Name() string { return a.name }

// Class implements Appliance.
func (a *Aircon) Class() string { return "aircon" }

// DCM implements Appliance.
func (a *Aircon) DCM() *havi.DCM { return a.dcm }

// Tick implements Appliance: the room temperature moves.
func (a *Aircon) Tick() { fcm.TickAircon(a.unit) }

// Unit exposes the air-conditioner FCM.
func (a *Aircon) Unit() *havi.BaseFCM { return a.unit }

// Lamp is a dimmable light.
type Lamp struct {
	name string
	dcm  *havi.DCM
	bulb *havi.BaseFCM
}

var _ Appliance = (*Lamp)(nil)

// NewLamp builds a lamp simulator.
func NewLamp(name string) *Lamp {
	l := &Lamp{
		name: name,
		dcm:  havi.NewDCM(name, "lamp"),
		bulb: fcm.NewLamp(),
	}
	l.dcm.AddFCM(l.bulb)
	return l
}

// Name implements Appliance.
func (l *Lamp) Name() string { return l.name }

// Class implements Appliance.
func (l *Lamp) Class() string { return "lamp" }

// DCM implements Appliance.
func (l *Lamp) DCM() *havi.DCM { return l.dcm }

// Tick implements Appliance; lamps have no mechanics.
func (l *Lamp) Tick() {}

// Bulb exposes the lamp FCM.
func (l *Lamp) Bulb() *havi.BaseFCM { return l.bulb }

// StandardHome builds the household used by the examples and benchmarks:
// a TV, a VCR, an amplifier, an air conditioner and a lamp, all attached.
func StandardHome() (*Home, error) {
	h := NewHome()
	for _, a := range []Appliance{
		NewTV("Living TV"),
		NewVCR("Living VCR"),
		NewAmplifier("Hi-Fi Amp"),
		NewAircon("Bedroom AC"),
		NewLamp("Desk Lamp"),
	} {
		if _, err := h.Add(a); err != nil {
			h.Close()
			return nil, err
		}
	}
	return h, nil
}

// New builds an appliance of the named class ("tv", "vcr", "amplifier",
// "aircon", "lamp", with common aliases). The class vocabulary is shared
// by uniintd's -appliances flag and the hub's per-home factories.
func New(class, name string) (Appliance, error) {
	switch class {
	case "tv":
		return NewTV(name), nil
	case "vcr":
		return NewVCR(name), nil
	case "amplifier", "amp":
		return NewAmplifier(name), nil
	case "aircon", "ac":
		return NewAircon(name), nil
	case "lamp", "light":
		return NewLamp(name), nil
	default:
		return nil, fmt.Errorf("appliance: unknown class %q", class)
	}
}
