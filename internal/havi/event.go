package havi

import (
	"maps"
	"slices"
	"sync"
)

// Event is a middleware notification. Type uses dotted names; well-known
// types are declared below. Key/Value/Str carry the payload.
type Event struct {
	Type   string
	Source SEID
	Key    string
	Value  int
	Str    string
}

// Well-known event types.
const (
	// EventFCMChanged fires when an FCM control changes value.
	// Key = control id, Value = new value.
	EventFCMChanged = "fcm.changed"
	// EventBusReset fires after the bus topology changed and devices were
	// re-enumerated. Value = generation number.
	EventBusReset = "bus.reset"
	// EventDeviceAttached fires when a DCM finishes registering.
	// Str = appliance class.
	EventDeviceAttached = "device.attached"
	// EventDeviceDetached fires when a DCM is withdrawn.
	EventDeviceDetached = "device.detached"
)

// EventManager fans events out to subscribers. Delivery is asynchronous
// through the middleware dispatcher: subscribers run one at a time, in
// subscription order, off the poster's goroutine — so a GUI callback may
// post an event that ultimately mutates the GUI without deadlocking.
type EventManager struct {
	mu     sync.RWMutex
	subs   map[int]*subscription
	nextID int
	disp   *dispatcher
}

type subscription struct {
	typ string // "" subscribes to every type
	fn  func(Event)
}

func newEventManager(disp *dispatcher) *EventManager {
	return &EventManager{subs: make(map[int]*subscription), disp: disp}
}

// Subscribe registers fn for events of the given type; an empty type
// subscribes to everything. Returns a subscription id for Unsubscribe.
func (em *EventManager) Subscribe(typ string, fn func(Event)) int {
	em.mu.Lock()
	defer em.mu.Unlock()
	em.nextID++
	em.subs[em.nextID] = &subscription{typ: typ, fn: fn}
	return em.nextID
}

// Unsubscribe cancels a subscription.
func (em *EventManager) Unsubscribe(id int) {
	em.mu.Lock()
	defer em.mu.Unlock()
	delete(em.subs, id)
}

// Post delivers ev to matching subscribers asynchronously. Events posted
// after shutdown are dropped.
func (em *EventManager) Post(ev Event) {
	em.mu.RLock()
	var fns []func(Event)
	for _, id := range slices.Sorted(maps.Keys(em.subs)) { // subscription order
		if s := em.subs[id]; s.typ == "" || s.typ == ev.Type {
			fns = append(fns, s.fn)
		}
	}
	em.mu.RUnlock()
	for _, fn := range fns {
		em.disp.post(func() { fn(ev) })
	}
}
