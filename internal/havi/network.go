package havi

import (
	"fmt"
	"sync"

	"uniint/internal/havi/bus"
)

// Network assembles the middleware: the bus, the registry, the message
// system and the event manager. Appliances join by attaching their DCM;
// the network listens for bus resets and keeps the registry consistent
// with the physical topology, posting device.attached/detached events that
// drive the home application's GUI regeneration.
type Network struct {
	bus    *bus.Bus
	disp   *dispatcher
	reg    *Registry
	ms     *MessageSystem
	em     *EventManager
	busSub int

	mu      sync.Mutex
	devices map[GUID]*DCM // all known devices (attached or not)
	online  map[GUID]bool // currently registered with the middleware
	closed  bool
}

// NewNetwork creates an empty home network.
func NewNetwork() *Network {
	disp := newDispatcher()
	n := &Network{
		bus:     bus.New(),
		disp:    disp,
		reg:     newRegistry(disp),
		ms:      newMessageSystem(disp),
		em:      newEventManager(disp),
		devices: make(map[GUID]*DCM),
		online:  make(map[GUID]bool),
	}
	n.busSub = n.bus.OnReset(n.handleReset)
	return n
}

// Registry returns the middleware registry.
func (n *Network) Registry() *Registry { return n.reg }

// Messages returns the message system.
func (n *Network) Messages() *MessageSystem { return n.ms }

// Events returns the event manager.
func (n *Network) Events() *EventManager { return n.em }

// Attach introduces an appliance to the network: the device gets a GUID
// (on first attach), joins the bus, and the resulting bus reset registers
// its DCM and FCMs. Returns the assigned GUID.
func (n *Network) Attach(d *DCM) (GUID, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return 0, ErrClosed
	}
	guid := d.GUID()
	if guid == 0 {
		guid = GUID(n.bus.AllocGUID())
		d.bind(guid, n.em)
	}
	if _, dup := n.devices[guid]; dup && n.online[guid] {
		n.mu.Unlock()
		return guid, fmt.Errorf("havi: device %s already attached", guid)
	}
	n.devices[guid] = d
	n.mu.Unlock()

	n.bus.Connect(uint64(guid)) // triggers handleReset synchronously
	return guid, nil
}

// Detach unplugs the device from the bus; its elements unregister.
func (n *Network) Detach(guid GUID) {
	n.bus.Disconnect(uint64(guid))
}

// handleReset reconciles middleware registration with the bus topology.
func (n *Network) handleReset(r bus.Reset) {
	present := make(map[GUID]bool, len(r.Nodes))
	for _, node := range r.Nodes {
		present[GUID(node.GUID)] = true
	}

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	var toRegister, toUnregister []*DCM
	for guid, d := range n.devices {
		switch {
		case present[guid] && !n.online[guid]:
			n.online[guid] = true
			toRegister = append(toRegister, d)
		case !present[guid] && n.online[guid]:
			delete(n.online, guid)
			toUnregister = append(toUnregister, d)
		}
	}
	n.mu.Unlock()

	for _, d := range toUnregister {
		d.unregister(n.reg, n.ms)
		n.em.Post(Event{
			Type:   EventDeviceDetached,
			Source: d.SEID(),
			Str:    d.Class(),
		})
	}
	for _, d := range toRegister {
		if err := d.register(n.reg, n.ms); err != nil {
			// Registration of a bound device cannot fail in practice;
			// surface loudly in development builds via the event stream.
			n.em.Post(Event{Type: "error", Str: err.Error()})
			continue
		}
		n.em.Post(Event{
			Type:   EventDeviceAttached,
			Source: d.SEID(),
			Str:    d.Class(),
		})
	}
	n.em.Post(Event{Type: EventBusReset, Value: r.Generation})
}

// WaitIdle blocks until all queued asynchronous work (events, watches,
// async sends) has been delivered. Tests and benchmarks use it as a
// deterministic quiescence point. That work runs as turns on the process
// pool, so WaitIdle must never be called from a pool turn (nor from a
// HAVi handler): it would hold a worker while waiting for one.
func (n *Network) WaitIdle() { n.disp.waitIdle() }

// Close shuts the middleware down: remaining devices are unregistered, the
// dispatcher refuses further work and what is still queued runs on the
// caller. Close waits for an in-flight turn but never for a free pool
// worker, so a pool turn may call it; a HAVi handler must not.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	var online []*DCM
	for guid, d := range n.devices {
		if n.online[guid] {
			online = append(online, d)
		}
	}
	n.online = make(map[GUID]bool)
	n.mu.Unlock()

	n.bus.RemoveListener(n.busSub)
	for _, d := range online {
		d.unregister(n.reg, n.ms)
	}
	n.disp.stop()
}
