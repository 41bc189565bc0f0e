// Package havi implements the home-networking middleware substrate the
// paper's prototype runs on: a HAVi-style (Home Audio/Video
// Interoperability) architecture with software elements addressed by SEIDs,
// an asynchronous message system, an attribute registry, an event manager,
// and device/functional-component modules (DCMs/FCMs) whose control
// surfaces are described by data-driven interaction (DDI) descriptors.
//
// The paper's home computing system (Nakajima, Middleware 2001) implements
// HAVi on commodity operating systems; the home appliance application
// discovers appliances through the registry and drives them through
// messages. This package reproduces that architectural surface in-process;
// internal/havi/bus supplies the hot-pluggable IEEE-1394-like bus.
package havi

import "fmt"

// GUID identifies a device (a bus node) globally, like the 1394 EUI-64.
type GUID uint64

// String renders the GUID in the conventional hex form.
func (g GUID) String() string { return fmt.Sprintf("%016x", uint64(g)) }

// SEID addresses one software element: a device GUID plus a local handle.
// Handle 1 is the DCM by convention; FCMs use 2 and up.
type SEID struct {
	GUID   GUID
	Handle uint32
}

// String renders the SEID as guid/handle.
func (s SEID) String() string {
	return fmt.Sprintf("%016x/%d", uint64(s.GUID), s.Handle)
}

// Zero reports whether the SEID is unassigned.
func (s SEID) Zero() bool { return s.GUID == 0 && s.Handle == 0 }

// Well-known handle values.
const (
	HandleDCM      uint32 = 1
	HandleFirstFCM uint32 = 2
)
