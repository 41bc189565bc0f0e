package device

import (
	"uniint/internal/core"
	"uniint/internal/gfx"
	"uniint/internal/rfb"
)

// Cellular phone display geometry (a 2002-era handset LCD).
const (
	PhoneWidth  = 96
	PhoneHeight = 64
)

// Phone is a cellular phone: a 12-key keypad for input and a tiny 1-bit
// LCD for output. The paper's second characteristic is motivated by
// exactly this device: "the user may choose his/her cellular phones as
// their input interaction devices, and television displays as his/her
// output interaction devices."
type Phone struct {
	id string
	em *emitter
	sc *screen
}

var (
	_ core.InputDevice  = (*Phone)(nil)
	_ core.OutputDevice = (*Phone)(nil)
)

// NewPhone creates a phone simulator.
func NewPhone(id string) *Phone {
	return &Phone{id: id, em: newEmitter(64), sc: newScreen()}
}

// ID implements core.InputDevice/core.OutputDevice.
func (p *Phone) ID() string { return p.id }

// Class implements core.InputDevice/core.OutputDevice.
func (p *Phone) Class() string { return "phone" }

// InputPlugin implements core.InputDevice.
func (p *Phone) InputPlugin() core.InputPlugin { return &phoneInputPlugin{} }

// OutputPlugin implements core.OutputDevice. The phone crushes the
// desktop onto its 96×64 1-bit LCD (box-downscale, then Floyd–Steinberg
// dithering) and requests 8-bit wire pixels, the cheapest true-color
// format, since the LCD discards color anyway (bandwidth effect measured
// in E8).
func (p *Phone) OutputPlugin() core.OutputPlugin {
	return &scaledOutput{name: "phone-lcd", pf: gfx.PF8(), w: PhoneWidth, h: PhoneHeight,
		bits: gfx.NewBitmap(PhoneWidth, PhoneHeight)}
}

// Events implements core.InputDevice.
func (p *Phone) Events() <-chan core.RawEvent { return p.em.events() }

// Present implements core.OutputDevice.
func (p *Phone) Present(f core.Frame) { p.sc.present(f) }

// Latest returns the most recent LCD frame.
func (p *Phone) Latest() core.Frame { return p.sc.Latest() }

// WaitFrames blocks until n frames have been presented.
func (p *Phone) WaitFrames(n int64) core.Frame { return p.sc.WaitFrames(n) }

// Dropped reports input events lost to backpressure.
func (p *Phone) Dropped() int64 { return p.em.Dropped() }

// Close shuts the device down.
func (p *Phone) Close() { p.em.close() }

// PressKey simulates pressing and releasing a keypad key. Valid names:
// "0".."9", "*", "#", "up", "down", "left", "right", "ok".
func (p *Phone) PressKey(name string) {
	p.em.emit(core.RawEvent{Kind: core.EvKeypad, Code: name, Down: true})
	p.em.emit(core.RawEvent{Kind: core.EvKeypad, Code: name, Down: false})
}

// phoneInputPlugin maps keypad keys onto the universal keyboard
// navigation vocabulary. The composed control panel is fully operable by
// focus traversal (Tab/arrows) plus Enter, so a 12-key handset can drive
// any appliance GUI — without the GUI knowing a phone exists.
//
// Layout follows the classic phone-joystick convention: 2=up, 8=down,
// 4=left, 6=right, 5=ok, plus dedicated navigation keys on newer handsets.
type phoneInputPlugin struct{}

var _ core.InputPlugin = (*phoneInputPlugin)(nil)

func (phoneInputPlugin) Name() string { return "phone-keypad" }

func (phoneInputPlugin) Bind(int, int) {}

// phoneKeymap maps keypad names to universal key symbols.
var phoneKeymap = map[string]uint32{
	"up":    rfb.KeyUp,
	"down":  rfb.KeyDown,
	"left":  rfb.KeyLeft,
	"right": rfb.KeyRight,
	"ok":    rfb.KeyReturn,
	"2":     rfb.KeyUp,
	"8":     rfb.KeyDown,
	"4":     rfb.KeyLeft,
	"6":     rfb.KeyRight,
	"5":     rfb.KeyReturn,
	"*":     rfb.KeyEscape,
	"#":     rfb.KeyTab,
}

func (phoneInputPlugin) Translate(ev core.RawEvent) []core.UniEvent {
	if ev.Kind != core.EvKeypad {
		return nil
	}
	key, ok := phoneKeymap[ev.Code]
	if !ok {
		// Unmapped digits pass through as their ASCII code points so
		// number-entry widgets still work.
		if len(ev.Code) == 1 && ev.Code[0] >= '0' && ev.Code[0] <= '9' {
			key = uint32(ev.Code[0])
		} else {
			return nil
		}
	}
	if ev.Down {
		return []core.UniEvent{core.KeyPress(key)}
	}
	return []core.UniEvent{core.KeyRelease(key)}
}
