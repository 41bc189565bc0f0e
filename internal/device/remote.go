package device

import (
	"uniint/internal/core"
	"uniint/internal/rfb"
)

// RemoteControl is the sofa device of the paper's second scenario: "if
// s/he is watching TV on a sofa, a remote controller may be better." It is
// input-only; the television screen is the natural matching output.
type RemoteControl struct {
	id string
	em *emitter
}

var _ core.InputDevice = (*RemoteControl)(nil)

// NewRemoteControl creates a remote-control simulator.
func NewRemoteControl(id string) *RemoteControl {
	return &RemoteControl{id: id, em: newEmitter(64)}
}

// ID implements core.InputDevice.
func (r *RemoteControl) ID() string { return r.id }

// Class implements core.InputDevice.
func (r *RemoteControl) Class() string { return "remote" }

// InputPlugin implements core.InputDevice.
func (r *RemoteControl) InputPlugin() core.InputPlugin { return &remoteInputPlugin{} }

// Events implements core.InputDevice.
func (r *RemoteControl) Events() <-chan core.RawEvent { return r.em.events() }

// Close shuts the device down.
func (r *RemoteControl) Close() { r.em.close() }

// Press simulates a full press+release of a named button. Valid names:
// "up", "down", "left", "right", "ok", "back", plus digits "0".."9".
func (r *RemoteControl) Press(button string) {
	r.em.emit(core.RawEvent{Kind: core.EvButton, Code: button, Down: true})
	r.em.emit(core.RawEvent{Kind: core.EvButton, Code: button, Down: false})
}

// remoteInputPlugin maps remote buttons onto universal keyboard events.
type remoteInputPlugin struct{}

var _ core.InputPlugin = (*remoteInputPlugin)(nil)

func (remoteInputPlugin) Name() string { return "remote-ir" }

func (remoteInputPlugin) Bind(int, int) {}

var remoteKeymap = map[string]uint32{
	"up":    rfb.KeyUp,
	"down":  rfb.KeyDown,
	"left":  rfb.KeyLeft,
	"right": rfb.KeyRight,
	"ok":    rfb.KeyReturn,
	"back":  rfb.KeyEscape,
}

func (remoteInputPlugin) Translate(ev core.RawEvent) []core.UniEvent {
	if ev.Kind != core.EvButton {
		return nil
	}
	key, ok := remoteKeymap[ev.Code]
	if !ok {
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
