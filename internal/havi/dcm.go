package havi

import (
	"fmt"
	"sync"
)

// DCM is a device control module: the software face of one appliance. It
// owns the appliance's FCMs and registers everything with the middleware
// when the device joins the bus.
type DCM struct {
	mu    sync.Mutex
	name  string
	class string // appliance class: "tv", "vcr", "amplifier", "aircon", "lamp"
	guid  GUID
	fcms  []*BaseFCM
}

// NewDCM creates a device control module. class names the appliance
// category the home application groups panels by.
func NewDCM(name, class string) *DCM {
	return &DCM{name: name, class: class}
}

// Class returns the appliance class.
func (d *DCM) Class() string { return d.class }

// GUID returns the bus-assigned device id (zero before attachment).
func (d *DCM) GUID() GUID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.guid
}

// SEID returns the DCM's own element address.
func (d *DCM) SEID() SEID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return SEID{GUID: d.guid, Handle: HandleDCM}
}

// AddFCM attaches a functional component to the device. Must be called
// before the device joins the network.
func (d *DCM) AddFCM(f *BaseFCM) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.fcms = append(d.fcms, f)
}

// FCMs returns the device's functional components.
func (d *DCM) FCMs() []*BaseFCM {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*BaseFCM, len(d.fcms))
	copy(out, d.fcms)
	return out
}

// HandleMessage implements Handler for the DCM element itself.
func (d *DCM) HandleMessage(m Message) (Reply, error) {
	switch m.Op {
	case "dcm.info":
		return Reply{Str: d.class + "/" + d.name, Value: len(d.FCMs())}, nil
	default:
		return Reply{}, fmt.Errorf("%w: %q", ErrUnknownOp, m.Op)
	}
}

// bind assigns the bus GUID and wires FCM SEIDs + event sinks.
func (d *DCM) bind(guid GUID, events *EventManager) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.guid = guid
	for i, f := range d.fcms {
		f.bind(SEID{GUID: guid, Handle: HandleFirstFCM + uint32(i)}, events)
	}
}

// register enrolls the DCM and its FCMs with the registry and message
// system. Called by the Network with the GUID already bound.
func (d *DCM) register(reg *Registry, ms *MessageSystem) error {
	d.mu.Lock()
	guid := d.guid
	name, class := d.name, d.class
	fcms := make([]*BaseFCM, len(d.fcms))
	copy(fcms, d.fcms)
	d.mu.Unlock()

	if guid == 0 {
		return fmt.Errorf("havi: register %q before bus attach: %w", name, ErrUnknownElement)
	}
	dcmID := SEID{GUID: guid, Handle: HandleDCM}
	if err := ms.Register(dcmID, d); err != nil {
		return err
	}
	reg.Register(Entry{SEID: dcmID, Attrs: map[string]string{
		"type":  "dcm",
		"class": class,
		"name":  name,
		"guid":  guid.String(),
	}})
	for _, f := range fcms {
		if err := ms.Register(f.SEID(), f); err != nil {
			return err
		}
		reg.Register(Entry{SEID: f.SEID(), Attrs: map[string]string{
			"type": "fcm",
			"kind": f.Kind(),
			"name": name,
			"guid": guid.String(),
		}})
	}
	return nil
}

// unregister withdraws the DCM and its FCMs.
func (d *DCM) unregister(reg *Registry, ms *MessageSystem) {
	d.mu.Lock()
	guid := d.guid
	fcms := make([]*BaseFCM, len(d.fcms))
	copy(fcms, d.fcms)
	d.mu.Unlock()
	for _, f := range fcms {
		reg.Unregister(f.SEID())
		ms.Unregister(f.SEID())
	}
	dcmID := SEID{GUID: guid, Handle: HandleDCM}
	reg.Unregister(dcmID)
	ms.Unregister(dcmID)
}
