package core

import "uniint/internal/gfx"

// InputPlugin translates device-native events into universal input events.
// The paper: "The input plug-in module contains a code to translate events
// received from the input device to mouse or keyboard events."
//
// A plug-in may be stateful (a gesture recognizer accumulating strokes);
// the proxy guarantees Translate is called from a single goroutine per
// device.
type InputPlugin interface {
	// Name identifies the plug-in module.
	Name() string
	// Bind tells the plug-in the server desktop geometry so positional
	// device events can be mapped into desktop coordinates. The proxy
	// fetches a fresh plug-in and binds it when the device attaches and
	// again on every new link, before any Translate.
	Bind(serverW, serverH int)
	// Translate converts one device event into zero or more universal
	// events, in order.
	Translate(ev RawEvent) []UniEvent
}

// Frame is a converted output image in the target device's native depth.
// Exactly one of RGB or Bits is non-nil.
//
// Ownership: the pixels and the Damage slice belong to the plug-in that
// produced the frame and are valid until that plug-in's next Convert. A
// device that keeps pixels past Present copies them.
type Frame struct {
	W, H int
	// RGB carries frames for color devices (possibly quantized).
	RGB *gfx.Framebuffer
	// Bits carries frames for 1-bit devices (cellular phone LCDs).
	Bits *gfx.Bitmap
	// Seq numbers frames per output device, starting at 1.
	Seq uint64
	// Damage lists, in device coordinates, where this frame differs from
	// the plug-in's previous one; it may over-cover, never under-cover.
	// nil means all of it (a plug-in's first frame, and every frame it
	// converted whole); empty and non-nil means nothing changed, the
	// previous frame handed back.
	Damage []gfx.Rect
}

// OutputPlugin converts server framebuffers into device frames. The paper:
// "The output plug-in module contains a code to convert bitmap images
// received from a UniInt server to images that can be displayed on the
// screen of the target output device."
//
// The proxy drives a plug-in with a two-step protocol, always from one
// goroutine at a time: Damaged reports what changed, zero or more times,
// then Convert produces the frame. A Convert with no Damaged since the
// previous Convert carries no damage information and converts the whole
// framebuffer, so a caller that knows nothing about the damage (a forced
// refresh, a benchmark loop) needs only Convert. A plug-in is stateful and
// belongs to one attachment, across every link the proxy has:
// OutputDevice.OutputPlugin returns a fresh one each time, whose first
// frame is whole, and the proxy fetches it once, at AttachOutput. Across
// links it hears every rectangle painted into the shadow frame (a cold
// join's full repaint covers all of it), so it converts only what changed.
type OutputPlugin interface {
	// Name identifies the plug-in module.
	Name() string
	// Damaged reports server rectangles that changed since the previous
	// Convert. The proxy calls it on every attached output's plug-in for
	// every update — selected or not — so a plug-in that keeps its frame
	// may accumulate them (bounded; over-coverage is allowed) and repaint
	// exactly what it missed when it is next converted. A call with no
	// rectangles still counts: "nothing changed" (how the client reports
	// a device switch's self-copy). rects is only valid during the call.
	Damaged(rects []gfx.Rect)
	// Convert renders the server framebuffer into a device frame: the
	// damage reported since the previous Convert when there was any
	// report, the whole framebuffer otherwise. It runs with the proxy's
	// shadow framebuffer locked and must not retain fb. The returned frame
	// stays valid until the next Convert (see Frame).
	Convert(fb *gfx.Framebuffer) Frame
	// PixelFormat returns the wire pixel format the proxy should request
	// from the server while this device is selected — a phone-class
	// device has no use for 32-bit color, and the cheaper format saves
	// protocol bandwidth (measured in experiment E8).
	PixelFormat() gfx.PixelFormat
}

// InputDevice is an input interaction device attached to the proxy. The
// device delivers its plug-in module at attach time and exposes a stream
// of native events.
type InputDevice interface {
	// ID uniquely names this device instance ("pda-1").
	ID() string
	// Class names the device category: "pda", "phone", "voice",
	// "gesture", "remote". Selection policies match on class.
	Class() string
	// InputPlugin returns the translation module the device transmits to
	// the proxy.
	InputPlugin() InputPlugin
	// Events returns the device's native event stream. The channel is
	// owned by the device and closed when the device shuts down.
	Events() <-chan RawEvent
}

// OutputDevice is an output interaction device attached to the proxy.
type OutputDevice interface {
	// ID uniquely names this device instance ("tv-display-1").
	ID() string
	// Class names the device category: "pda", "phone", "tv".
	Class() string
	// OutputPlugin returns the conversion module the device transmits to
	// the proxy: a fresh plug-in per call, with no frame yet, so every
	// attachment starts with a whole frame. The proxy calls it once per
	// attachment, not per link. Every bundled plug-in keeps its frame.
	OutputPlugin() OutputPlugin
	// Present delivers a converted frame. Implementations must not block:
	// slow devices drop to latest-wins. The frame's pixels are the
	// plug-in's and change at its next Convert, so a device that shows
	// them past the call copies them — all of them when f.Damage is nil,
	// the rectangles of f.Damage otherwise.
	Present(f Frame)
}
