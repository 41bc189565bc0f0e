// Package core implements the paper's primary contribution: the UniInt
// (Universal Interaction) proxy.
//
// The proxy replaces the viewer of a thin-client system (paper §2.2). It
// converts bitmap images received from a UniInt server according to the
// characteristics of the selected output device, and converts events
// received from the selected input device into the universal mouse/keyboard
// events of the universal interaction protocol. Conversion in both
// directions is performed by plug-in modules that the interaction devices
// hand to the proxy when they attach — the paper ships these as mobile
// code; here they are Go values implementing the plug-in interfaces
// (docs/ARCHITECTURE.md, "The layer stack", shows where they sit).
//
// The proxy also owns device selection: input and output devices are
// chosen independently (characteristic C1) and can be switched dynamically
// while the session continues (characteristic C2), typically driven by the
// situation engine in internal/situation.
package core

import "uniint/internal/rfb"

// RawEvent is an event in a device's native vocabulary, before the input
// plug-in translates it. Exactly which fields are meaningful depends on
// Kind; plug-ins are written against their own device's conventions.
type RawEvent struct {
	// Kind names the device-specific event class: "stylus", "keypad",
	// "utterance", "stroke", "button".
	Kind string
	// X, Y carry positional payload (stylus/touch coordinates).
	X, Y int
	// Down distinguishes press/release for contact and button events.
	Down bool
	// Code carries symbolic payload: keypad key name, spoken utterance,
	// gesture stroke name, remote button name.
	Code string
}

// Raw event kinds produced by the device simulators.
const (
	EvStylus    = "stylus"    // X,Y + Down (touch contact)
	EvKeypad    = "keypad"    // Code = "0".."9", "*", "#", "up", "down", "ok" + Down
	EvUtterance = "utterance" // Code = recognized sentence
	EvStroke    = "stroke"    // Code = gesture name ("swipe_left", "circle", …)
	EvButton    = "button"    // Code = remote button name + Down
)

// UniEvent is one universal input event: either a pointer event or a key
// event of the universal interaction protocol.
type UniEvent struct {
	IsPointer bool
	Pointer   rfb.PointerEvent
	Key       rfb.KeyEvent
}

// KeyPress builds the press half of a key event.
func KeyPress(key uint32) UniEvent {
	return UniEvent{Key: rfb.KeyEvent{Down: true, Key: key}}
}

// KeyRelease builds the release half of a key event.
func KeyRelease(key uint32) UniEvent {
	return UniEvent{Key: rfb.KeyEvent{Down: false, Key: key}}
}

// KeyTap builds a press+release pair.
func KeyTap(key uint32) []UniEvent {
	return []UniEvent{KeyPress(key), KeyRelease(key)}
}

// PointerTo builds a pointer event at (x, y) with the given button mask.
func PointerTo(x, y int, buttons uint8) UniEvent {
	if x < 0 {
		x = 0
	}
	if y < 0 {
		y = 0
	}
	return UniEvent{IsPointer: true, Pointer: rfb.PointerEvent{
		Buttons: buttons, X: uint16(x), Y: uint16(y),
	}}
}
