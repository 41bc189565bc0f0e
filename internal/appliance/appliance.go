// Package appliance provides simulated networked home appliances: each one
// bundles a HAVi device control module (DCM), its functional component
// modules (FCMs) and a discrete-time simulation of the underlying hardware
// (tape transport motion, thermal drift, clock time).
//
// The paper's prototype controls real audio/visual appliances through the
// authors' HAVi home computing system; these simulators stand in for the
// hardware while exercising identical middleware code paths (registration,
// discovery, control messages, change events).
package appliance

import (
	"fmt"
	"sync"
	"time"

	"uniint/internal/havi"
)

// Appliance is one simulated device.
type Appliance interface {
	// Name returns the human-readable device name.
	Name() string
	// Class returns the appliance class ("tv", "vcr", …).
	Class() string
	// DCM returns the device's control module for network attachment.
	DCM() *havi.DCM
	// Tick advances the hardware simulation by one time unit.
	Tick()
}

// Home assembles a household: the middleware network, its appliances and
// an optional real-time ticker driving the hardware simulations.
type Home struct {
	net *havi.Network

	mu         sync.Mutex
	appliances []Appliance
	guids      map[Appliance]havi.GUID

	tickMu    sync.Mutex
	tickRun   sync.Mutex // held across each timer-fired advance; StopTicker's barrier
	tickTimer *time.Timer
	ticks     sync.WaitGroup // fires armed or running; StopTicker waits them out
}

// NewHome creates a household with a fresh middleware network.
func NewHome() *Home {
	return &Home{
		net:   havi.NewNetwork(),
		guids: make(map[Appliance]havi.GUID),
	}
}

// Network returns the household middleware.
func (h *Home) Network() *havi.Network { return h.net }

// Add attaches an appliance to the home network (plugging it into the
// bus). Returns the assigned GUID.
func (h *Home) Add(a Appliance) (havi.GUID, error) {
	guid, err := h.net.Attach(a.DCM())
	if err != nil {
		return 0, fmt.Errorf("add %s: %w", a.Name(), err)
	}
	h.mu.Lock()
	h.appliances = append(h.appliances, a)
	h.guids[a] = guid
	h.mu.Unlock()
	return guid, nil
}

// Remove unplugs an appliance from the bus. The appliance object survives
// and can be re-added (same GUID), like re-seating a cable.
func (h *Home) Remove(a Appliance) {
	h.mu.Lock()
	guid, ok := h.guids[a]
	if ok {
		for i, x := range h.appliances {
			if x == a {
				h.appliances = append(h.appliances[:i], h.appliances[i+1:]...)
				break
			}
		}
		delete(h.guids, a)
	}
	h.mu.Unlock()
	if ok {
		h.net.Detach(guid)
	}
}

// Appliances returns the currently attached appliances.
func (h *Home) Appliances() []Appliance {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Appliance, len(h.appliances))
	copy(out, h.appliances)
	return out
}

// Advance ticks every appliance n times (deterministic simulation step for
// tests and benchmarks).
func (h *Home) Advance(n int) {
	for i := 0; i < n; i++ {
		for _, a := range h.Appliances() {
			a.Tick()
		}
	}
}

// StartTicker begins advancing the simulation in real time, once per
// interval. Stop with StopTicker or Close.
//
// The tick is a runtime timer that re-arms itself after each advance: no
// goroutine waits between ticks, and a slow advance delays the next tick
// instead of stacking fires.
func (h *Home) StartTicker(interval time.Duration) {
	h.tickMu.Lock()
	defer h.tickMu.Unlock()
	if h.tickTimer != nil {
		return // already running
	}
	h.tickRun.Lock() // tickTimer is read under tickRun by tickOnce
	h.ticks.Add(1)
	h.tickTimer = time.AfterFunc(interval, func() { h.tickOnce(interval) })
	h.tickRun.Unlock()
}

func (h *Home) tickOnce(interval time.Duration) {
	defer h.ticks.Done()
	h.tickRun.Lock()
	defer h.tickRun.Unlock()
	// Re-check under tickRun: a fire dispatched just as StopTicker ran
	// must neither advance nor re-arm.
	if h.tickTimer != nil {
		h.Advance(1)
		h.ticks.Add(1)
		h.tickTimer.Reset(interval)
	}
}

// StopTicker halts the real-time simulation; it waits out an advance in
// flight or a fire too late to stop, so nothing of the ticker outlives it.
func (h *Home) StopTicker() {
	h.tickMu.Lock()
	defer h.tickMu.Unlock()
	if h.tickTimer == nil {
		return
	}
	h.tickRun.Lock() // barrier: wait out an advance already running
	if h.tickTimer.Stop() {
		h.ticks.Done() // the fire it cancelled
	}
	h.tickTimer = nil
	h.tickRun.Unlock()
	h.ticks.Wait() // and one that fired before it took tickRun
}

// Close stops the ticker and shuts the middleware down.
func (h *Home) Close() {
	h.StopTicker()
	h.net.Close()
}
