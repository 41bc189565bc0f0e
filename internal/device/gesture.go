package device

import (
	"uniint/internal/core"
	"uniint/internal/rfb"
)

// Point is one sample of a gesture trajectory in device coordinates.
type Point struct{ X, Y int }

// GestureInput is the wearable/augmented-reality input device of the
// paper ("the user may control appliances by his/her gesture by navigating
// augmented real world generated by wearable devices"). The device
// classifies raw hand trajectories into symbolic strokes locally and
// transmits the stroke names; its plug-in maps strokes onto universal
// keyboard navigation.
type GestureInput struct {
	id string
	em *emitter
}

var _ core.InputDevice = (*GestureInput)(nil)

// NewGestureInput creates a gesture input simulator.
func NewGestureInput(id string) *GestureInput {
	return &GestureInput{id: id, em: newEmitter(32)}
}

// ID implements core.InputDevice.
func (g *GestureInput) ID() string { return g.id }

// Class implements core.InputDevice.
func (g *GestureInput) Class() string { return "gesture" }

// InputPlugin implements core.InputDevice.
func (g *GestureInput) InputPlugin() core.InputPlugin { return &gestureInputPlugin{} }

// Events implements core.InputDevice.
func (g *GestureInput) Events() <-chan core.RawEvent { return g.em.events() }

// Close shuts the device down.
func (g *GestureInput) Close() { g.em.close() }

// Stroke feeds a raw trajectory to the on-device classifier; a recognized
// stroke is emitted as an event, anything else is dropped.
func (g *GestureInput) Stroke(points []Point) {
	if name, ok := ClassifyStroke(points); ok {
		g.em.emit(core.RawEvent{Kind: core.EvStroke, Code: name})
	}
}

// EmitStroke bypasses classification and emits a named stroke directly
// (used by scripted scenarios).
func (g *GestureInput) EmitStroke(name string) {
	g.em.emit(core.RawEvent{Kind: core.EvStroke, Code: name})
}

// Stroke names understood by the gesture plug-in.
const (
	StrokeTap        = "tap"
	StrokeSwipeUp    = "swipe_up"
	StrokeSwipeDown  = "swipe_down"
	StrokeSwipeLeft  = "swipe_left"
	StrokeSwipeRight = "swipe_right"
	StrokeCircle     = "circle"
)

// ClassifyStroke reduces a raw trajectory to a symbolic stroke using
// displacement/path-length geometry:
//
//   - tiny bounding box                      → tap
//   - closed path with substantial length    → circle
//   - dominant axis displacement             → swipe in that direction
//
// It is exported so experiment E10 can benchmark classification directly.
func ClassifyStroke(points []Point) (string, bool) {
	if len(points) == 0 {
		return "", false
	}
	first, last := points[0], points[len(points)-1]
	dx := last.X - first.X
	dy := last.Y - first.Y

	// Bounding box and path length.
	minX, maxX, minY, maxY := first.X, first.X, first.Y, first.Y
	path := 0
	for i := 1; i < len(points); i++ {
		p := points[i]
		minX, maxX = min(minX, p.X), max(maxX, p.X)
		minY, maxY = min(minY, p.Y), max(maxY, p.Y)
		path += abs(p.X-points[i-1].X) + abs(p.Y-points[i-1].Y)
	}
	boxW, boxH := maxX-minX, maxY-minY

	const tapBox = 8
	if boxW <= tapBox && boxH <= tapBox {
		return StrokeTap, true
	}
	// Closed-ish path with length well beyond its displacement: circle.
	disp := abs(dx) + abs(dy)
	if disp <= (boxW+boxH)/4 && path >= 2*(boxW+boxH) && boxW > tapBox && boxH > tapBox {
		return StrokeCircle, true
	}
	// Swipes need a clear dominant axis.
	switch {
	case abs(dx) >= 2*abs(dy) && abs(dx) > tapBox:
		if dx > 0 {
			return StrokeSwipeRight, true
		}
		return StrokeSwipeLeft, true
	case abs(dy) >= 2*abs(dx) && abs(dy) > tapBox:
		if dy > 0 {
			return StrokeSwipeDown, true
		}
		return StrokeSwipeUp, true
	}
	return "", false
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// gestureInputPlugin maps strokes to universal keyboard navigation:
// vertical swipes traverse focus, horizontal swipes adjust values, tap and
// circle activate.
type gestureInputPlugin struct{}

var _ core.InputPlugin = (*gestureInputPlugin)(nil)

func (gestureInputPlugin) Name() string { return "gesture-strokes" }

func (gestureInputPlugin) Bind(int, int) {}

var strokeKeymap = map[string]uint32{
	StrokeSwipeDown:  rfb.KeyTab,
	StrokeSwipeUp:    rfb.KeyUp,
	StrokeSwipeLeft:  rfb.KeyLeft,
	StrokeSwipeRight: rfb.KeyRight,
	StrokeTap:        rfb.KeyReturn,
	StrokeCircle:     rfb.KeyReturn,
}

func (gestureInputPlugin) Translate(ev core.RawEvent) []core.UniEvent {
	if ev.Kind != core.EvStroke {
		return nil
	}
	key, ok := strokeKeymap[ev.Code]
	if !ok {
		return nil
	}
	return core.KeyTap(key)
}
