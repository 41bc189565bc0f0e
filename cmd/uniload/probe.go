//go:build linux

package main

import (
	"net"
	"sync/atomic"
	"time"

	"uniint/internal/core"
	"uniint/internal/gfx"
)

// The harness records spans from its own files, around the calls into each
// layer: a net.Conn wrapper handed to core.Dial stamps the socket side, and
// wrappers around the device simulators stamp the callbacks the proxy makes
// into them. Nothing is added inside the program.

// probeConn counts the bytes of one link and, in a traced run, stamps the
// last write before and the first read after the harness arms it — the two
// ends of server.turnaround_us.
type probeConn struct {
	net.Conn
	timed bool

	sent, received atomic.Int64
	armed          atomic.Bool
	lastWrite      atomic.Int64 // UnixNano of the last write while armed
	firstRead      atomic.Int64 // UnixNano of the read that disarmed
}

func (c *probeConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Add(int64(n))
	if c.timed && c.armed.Load() {
		c.lastWrite.Store(time.Now().UnixNano())
	}
	return n, err
}

func (c *probeConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.received.Add(int64(n))
	if c.timed && n > 0 && c.armed.CompareAndSwap(true, false) {
		c.firstRead.Store(time.Now().UnixNano())
	}
	return n, err
}

// arm starts an op's socket span: writes are stamped until the next read
// returns bytes.
func (c *probeConn) arm() { c.armed.Store(true) }

// outProbe wraps an output device simulator: it tells the closed loop when
// a frame was presented and, in a traced run, when conversion started.
type outProbe struct {
	core.OutputDevice
	timed bool

	frames     atomic.Int64
	convertAt  atomic.Int64 // UnixNano when the last Convert began
	presentAt  atomic.Int64 // UnixNano when the last Present returned
	notify     chan struct{}
	negotiated chan struct{} // the proxy asked for the wire pixel format
}

func newOutProbe(d core.OutputDevice, timed bool) *outProbe {
	return &outProbe{
		OutputDevice: d, timed: timed,
		notify: make(chan struct{}, 1), negotiated: make(chan struct{}, 1),
	}
}

// OutputPlugin hands the proxy the device's plug-in behind a stamp.
func (o *outProbe) OutputPlugin() core.OutputPlugin {
	return probePlugin{o.OutputDevice.OutputPlugin(), o}
}

// Present delivers the frame to the simulator, then wakes the waiting op.
func (o *outProbe) Present(f core.Frame) {
	o.OutputDevice.Present(f)
	o.presentAt.Store(time.Now().UnixNano())
	o.frames.Add(1)
	poke(o.notify)
}

// await blocks until more than after frames have been presented or the
// timer fires; it reports whether the frame came.
func (o *outProbe) await(after int64, timeout *time.Timer) bool {
	for o.frames.Load() <= after {
		select {
		case <-o.notify:
		case <-timeout.C:
			return o.frames.Load() > after
		}
	}
	return true
}

type probePlugin struct {
	core.OutputPlugin
	o *outProbe
}

func (p probePlugin) Convert(fb *gfx.Framebuffer) core.Frame {
	if p.o.timed {
		p.o.convertAt.Store(time.Now().UnixNano())
	}
	return p.OutputPlugin.Convert(fb)
}

// PixelFormat is the proxy's last question before it asks for pixels, on
// SelectOutput and on a supervisor's restore alike.
func (p probePlugin) PixelFormat() gfx.PixelFormat {
	poke(p.o.negotiated)
	return p.OutputPlugin.PixelFormat()
}

// inProbe wraps an input device simulator: the supervisor fetches the
// input plug-in right after core.DialResume returned, which ends
// hub.connect_us.
type inProbe struct {
	core.InputDevice
	attachedAt atomic.Int64
}

func (i *inProbe) InputPlugin() core.InputPlugin {
	i.attachedAt.Store(time.Now().UnixNano())
	return i.InputDevice.InputPlugin()
}

func poke(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// opTimeout is how long a client waits for an op before counting it failed.
const opTimeout = time.Second

// newOpTimer returns a stopped timer; ops re-arm it with Reset.
func newOpTimer() *time.Timer {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}
