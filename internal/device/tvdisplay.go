package device

import (
	"uniint/internal/core"
	"uniint/internal/gfx"
)

// TV display geometry.
const (
	TVWidth  = 640
	TVHeight = 480
)

// TVDisplay is an output-only interaction device: the living-room
// television screen used as the GUI surface while input comes from a
// phone, remote or voice (characteristic C1: independent choice).
type TVDisplay struct {
	id string
	sc *screen
}

var _ core.OutputDevice = (*TVDisplay)(nil)

// NewTVDisplay creates a TV display simulator.
func NewTVDisplay(id string) *TVDisplay {
	return &TVDisplay{id: id, sc: newScreen()}
}

// ID implements core.OutputDevice.
func (t *TVDisplay) ID() string { return t.id }

// Class implements core.OutputDevice.
func (t *TVDisplay) Class() string { return "tv" }

// OutputPlugin implements core.OutputDevice.
func (t *TVDisplay) OutputPlugin() core.OutputPlugin { return newTVOutputPlugin() }

// Present implements core.OutputDevice.
func (t *TVDisplay) Present(f core.Frame) { t.sc.present(f) }

// Latest returns the most recent frame.
func (t *TVDisplay) Latest() core.Frame { return t.sc.Latest() }

// FrameCount returns the number of frames presented.
func (t *TVDisplay) FrameCount() int64 { return t.sc.FrameCount() }

// WaitFrames blocks until n frames have been presented.
func (t *TVDisplay) WaitFrames(n int64) core.Frame { return t.sc.WaitFrames(n) }

// tvDamageLimit bounds the rectangles a TV plug-in keeps between
// conversions; past it gfx.Damage merges the cheapest pair, so a TV that
// sat unselected through any number of updates still holds a short list.
const tvDamageLimit = 8

// tvOutputPlugin is the passthrough conversion: the TV panel matches the
// server desktop at full 32-bit color, so the plug-in keeps one device
// frame (the proxy's shadow buffer cannot be retained) and copies into it
// only the rectangles the proxy reported damaged — the cost of a frame is
// proportional to what changed, and nothing is allocated per frame. An
// odd-sized desktop is rescaled whole into the same frame.
type tvOutputPlugin struct {
	frame   *gfx.Framebuffer // the one device frame; nil until the first Convert
	stale   bool             // frame is new or a rescale: copy it whole at native size
	pending *gfx.Damage      // reported by Damaged since the last Convert
	told    bool             // Damaged ran since the last Convert
	rects   []gfx.Rect       // the last frame's Damage; swaps storage with pending
}

var _ core.OutputPlugin = (*tvOutputPlugin)(nil)

func newTVOutputPlugin() *tvOutputPlugin {
	pending := gfx.NewDamage(gfx.R(0, 0, TVWidth, TVHeight), tvDamageLimit)
	// The two rectangle lists swap on every Convert. Both start non-nil
	// (a nil Frame.Damage means "all of it") and at full size (the present
	// path must not allocate).
	pending.TakeInto(make([]gfx.Rect, 0, tvDamageLimit+1))
	return &tvOutputPlugin{pending: pending, rects: make([]gfx.Rect, 0, tvDamageLimit+1)}
}

func (*tvOutputPlugin) Name() string { return "tv-screen" }

func (*tvOutputPlugin) PixelFormat() gfx.PixelFormat { return gfx.PF32() }

func (p *tvOutputPlugin) Damaged(rects []gfx.Rect) {
	p.told = true
	for _, r := range rects {
		p.pending.Add(r)
	}
}

func (p *tvOutputPlugin) Convert(fb *gfx.Framebuffer) core.Frame {
	told := p.told
	p.told = false
	p.rects = p.pending.TakeInto(p.rects)
	if p.frame == nil {
		p.frame, p.stale = gfx.NewFramebuffer(TVWidth, TVHeight), true
	}
	f := core.Frame{W: TVWidth, H: TVHeight, RGB: p.frame}
	switch {
	case fb.W() != TVWidth || fb.H() != TVHeight:
		// An odd-sized desktop is rescaled whole, like the PDA and phone.
		gfx.ScaleNearestInto(p.frame, fb)
		p.stale = true
	case p.stale || !told:
		p.frame.Blit(0, 0, fb, fb.Bounds())
		p.stale = false
	default:
		for _, r := range p.rects {
			p.frame.Blit(r.X, r.Y, fb, r)
		}
		f.Damage = p.rects
	}
	return f
}
