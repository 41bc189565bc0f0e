// Package device simulates the advanced interaction devices of the paper:
// PDAs, cellular phones, TV displays, voice input, gesture input and
// remote controllers. Each device carries the input and/or output plug-in
// module it "transmits" to the UniInt proxy when selected.
//
// The real hardware (wireless PDAs, phone handsets, microphones, cameras)
// is a hardware gate for reproduction; these simulators expose the same
// event vocabularies and display constraints (geometry, color depth,
// keypad-only navigation), so every proxy conversion path is exercised
// faithfully. The package map in docs/ARCHITECTURE.md lists the simulators
// beside the layers they stand in for.
package device

import (
	"sync"
	"sync/atomic"

	"uniint/internal/core"
	"uniint/internal/gfx"
)

// emitter is the shared event-source half of an input device: a bounded
// stream with drop-on-overflow semantics (real input hardware is lossy
// under backpressure, and the proxy must never be able to deadlock a
// device).
type emitter struct {
	ch      chan core.RawEvent
	dropped atomic.Int64
	closed  atomic.Bool
	mu      sync.Mutex
}

func newEmitter(buffer int) *emitter {
	if buffer < 1 {
		buffer = 64
	}
	return &emitter{ch: make(chan core.RawEvent, buffer)}
}

// emit enqueues ev, dropping it when the consumer lags or the device is
// closed.
func (e *emitter) emit(ev core.RawEvent) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		e.dropped.Add(1)
		return
	}
	select {
	case e.ch <- ev:
	default:
		e.dropped.Add(1)
	}
}

// events returns the consumer side.
func (e *emitter) events() <-chan core.RawEvent { return e.ch }

// close ends the stream.
func (e *emitter) close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Swap(true) {
		return
	}
	close(e.ch)
}

// Dropped reports how many events were lost to backpressure.
func (e *emitter) Dropped() int64 { return e.dropped.Load() }

// screen is the shared display half of an output device: it keeps its own
// copy of the latest presented frame (latest-wins, never blocking the
// proxy) and lets tests wait for a frame sequence number. A frame's pixels
// belong to the plug-in that converted them and change at its next
// Convert, so present copies what the frame says changed into the panel
// and readers get a snapshot of the panel.
type screen struct {
	mu    sync.Mutex
	cond  *sync.Cond
	frame core.Frame       // latest frame's geometry and Seq; pixels live below
	panel *gfx.Framebuffer // what an RGB device shows
	lcd   gfx.Bitmap       // what a 1-bit device shows
	count int64
}

func newScreen() *screen {
	s := &screen{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// present implements the device side of core.OutputDevice.Present: all of
// the frame when f.Damage is nil (or the panel cannot take a partial
// update), the rectangles of f.Damage otherwise.
func (s *screen) present(f core.Frame) {
	s.mu.Lock()
	switch {
	case f.RGB == nil:
	case s.panel == nil || s.panel.W() != f.RGB.W() || s.panel.H() != f.RGB.H():
		s.panel = f.RGB.Clone()
	case f.Damage == nil:
		s.panel.Blit(0, 0, f.RGB, f.RGB.Bounds())
	default:
		for _, r := range f.Damage {
			s.panel.Blit(r.X, r.Y, f.RGB, r)
		}
	}
	if f.Bits != nil {
		bits := append(s.lcd.Bits[:0], f.Bits.Bits...)
		s.lcd = *f.Bits
		s.lcd.Bits = bits
	}
	s.frame = core.Frame{W: f.W, H: f.H, Seq: f.Seq}
	s.count++
	s.cond.Broadcast()
	s.mu.Unlock()
}

// snapshot returns the latest frame with pixels of its own (mu held).
func (s *screen) snapshot() core.Frame {
	f := s.frame
	if s.panel != nil {
		f.RGB = s.panel.Clone()
	}
	if s.lcd.Bits != nil {
		lcd := s.lcd
		lcd.Bits = append([]byte(nil), s.lcd.Bits...)
		f.Bits = &lcd
	}
	return f
}

// Latest returns a snapshot of the most recent frame (zero Frame if none
// yet).
func (s *screen) Latest() core.Frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshot()
}

// FrameCount returns how many frames have been presented.
func (s *screen) FrameCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// WaitFrames blocks until at least n frames have been presented and
// returns a snapshot of the latest.
func (s *screen) WaitFrames(n int64) core.Frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.count < n {
		s.cond.Wait()
	}
	return s.snapshot()
}

// scaledOutput is the PDA's and the phone's output plug-in: a box
// downscale onto the panel, Floyd–Steinberg dithered when the panel is
// 1-bit (bits is set). It converts whole, into storage of its own,
// whenever anything changed; told only "nothing changed" since its
// previous Convert, it hands that frame back.
type scaledOutput struct {
	name          string
	pf            gfx.PixelFormat
	w, h          int
	scaled        *gfx.Framebuffer // the colour panel; nil until the first Convert
	bits          *gfx.Bitmap      // the dithered panel of a 1-bit device
	scratch       []int32          // Floyd–Steinberg's error rows
	src           gfx.Rect         // the desktop bounds scaled was converted from
	told, changed bool             // since the last Convert: Damaged ran; with a rectangle
}

func (p *scaledOutput) Name() string { return p.name }

func (p *scaledOutput) PixelFormat() gfx.PixelFormat { return p.pf }

func (p *scaledOutput) Damaged(rects []gfx.Rect) {
	p.told = true
	p.changed = p.changed || len(rects) > 0
}

func (p *scaledOutput) Convert(fb *gfx.Framebuffer) core.Frame {
	f := core.Frame{W: p.w, H: p.h}
	if p.told && !p.changed && p.scaled != nil && fb.Bounds() == p.src {
		f.Damage = []gfx.Rect{} // nothing changed: the previous frame
	} else {
		if p.scaled == nil {
			p.scaled = gfx.NewFramebuffer(p.w, p.h)
		}
		gfx.ScaleBoxInto(p.scaled, fb)
		p.src = fb.Bounds()
		if p.bits != nil {
			p.scratch = gfx.FloydSteinbergInto(p.bits, p.scaled, p.scratch)
		}
	}
	p.told, p.changed = false, false
	if p.bits != nil {
		f.Bits = p.bits
	} else {
		f.RGB = p.scaled
	}
	return f
}
