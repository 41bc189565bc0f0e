// Package bus simulates the hot-pluggable IEEE-1394-like home network bus
// beneath the HAVi middleware. Devices own persistent GUIDs (like EUI-64s);
// connecting or disconnecting any device triggers a bus reset that
// renumbers physical IDs and re-announces the topology to listeners, which
// is the discovery mechanism the home appliance application's dynamic GUI
// regeneration hangs off.
//
// The package deliberately does not import the havi package: the middleware
// observes the bus, not the other way around.
package bus

import (
	"sort"
	"sync"
)

// Node describes one connected device after a reset.
type Node struct {
	GUID uint64 // persistent device id
	Phy  int    // physical id assigned by the last reset (0-based)
}

// Reset is the topology snapshot delivered to listeners after every
// connect/disconnect.
type Reset struct {
	Generation int
	Nodes      []Node
}

// Bus is a software home-network bus. The zero value is not usable; create
// with New.
type Bus struct {
	mu        sync.Mutex
	gen       int
	nextGUID  uint64
	connected map[uint64]bool
	listeners map[int]func(Reset)
	nextSub   int
}

// New creates an empty bus.
func New() *Bus {
	return &Bus{
		connected: make(map[uint64]bool),
		listeners: make(map[int]func(Reset)),
	}
}

// AllocGUID hands out a fresh persistent device id. Devices keep their
// GUID across connect/disconnect cycles.
func (b *Bus) AllocGUID() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextGUID++
	// Shape the id like a vendor-prefixed EUI-64 so logs look plausible.
	return 0x00A0DE<<40 | b.nextGUID
}

// Connect attaches the device with the given GUID and triggers a bus
// reset. Connecting an already-connected GUID still triggers a reset (a
// cable re-seat), matching real 1394 behaviour.
func (b *Bus) Connect(guid uint64) Reset {
	b.mu.Lock()
	b.connected[guid] = true
	r := b.resetLocked()
	fns := b.listenersLocked()
	b.mu.Unlock()
	for _, fn := range fns {
		fn(r)
	}
	return r
}

// Disconnect removes the device and triggers a bus reset. Disconnecting an
// unknown GUID is a no-op returning the current topology.
func (b *Bus) Disconnect(guid uint64) Reset {
	b.mu.Lock()
	if !b.connected[guid] {
		r := b.snapshotLocked()
		b.mu.Unlock()
		return r
	}
	delete(b.connected, guid)
	r := b.resetLocked()
	fns := b.listenersLocked()
	b.mu.Unlock()
	for _, fn := range fns {
		fn(r)
	}
	return r
}

// resetLocked bumps the generation and renumbers phy ids.
func (b *Bus) resetLocked() Reset {
	b.gen++
	return b.snapshotLocked()
}

func (b *Bus) snapshotLocked() Reset {
	guids := make([]uint64, 0, len(b.connected))
	for g := range b.connected {
		guids = append(guids, g)
	}
	sort.Slice(guids, func(i, j int) bool { return guids[i] < guids[j] })
	nodes := make([]Node, len(guids))
	for i, g := range guids {
		nodes[i] = Node{GUID: g, Phy: i}
	}
	return Reset{Generation: b.gen, Nodes: nodes}
}

func (b *Bus) listenersLocked() []func(Reset) {
	ids := make([]int, 0, len(b.listeners))
	for id := range b.listeners {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	fns := make([]func(Reset), 0, len(ids))
	for _, id := range ids {
		fns = append(fns, b.listeners[id])
	}
	return fns
}

// OnReset subscribes fn to bus resets; fn runs synchronously on the
// goroutine performing the connect/disconnect. Returns an id for Remove.
func (b *Bus) OnReset(fn func(Reset)) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextSub++
	b.listeners[b.nextSub] = fn
	return b.nextSub
}

// RemoveListener cancels an OnReset subscription.
func (b *Bus) RemoveListener(id int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.listeners, id)
}

// Nodes returns the current topology.
func (b *Bus) Nodes() []Node {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.snapshotLocked().Nodes
}

// Connected reports whether guid is currently on the bus.
func (b *Bus) Connected(guid uint64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.connected[guid]
}
