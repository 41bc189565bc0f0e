package havi

import (
	"errors"
	"fmt"
	"sync"
)

// FCM message operations (the vocabulary the home application speaks).
const (
	OpDescribe = "fcm.describe" // reply Data = JSON []Control, Str = kind
	OpGet      = "fcm.get"      // Key = control id; reply Value
	OpSet      = "fcm.set"      // Key = control id, Value = new value
	OpDo       = "fcm.do"       // Key = action id
)

// Errors returned by FCM control access.
var (
	ErrUnknownControl = errors.New("havi: unknown control")
	ErrReadOnly       = errors.New("havi: control is read-only")
	ErrNotAction      = errors.New("havi: control is not an action")
	ErrBadValue       = errors.New("havi: value out of range")
	ErrRejected       = errors.New("havi: command rejected in current state")
)

// BaseFCM is a functional component module: one controllable function block
// of an appliance (tuner, VCR transport, amplifier, …), addressed by SEID
// and publishing a DDI control surface. It is the reusable core — a control
// table, a value store, range validation and change events — that concrete
// FCMs (internal/havi/fcm) configure with descriptors and hooks.
type BaseFCM struct {
	kind string

	mu     sync.Mutex
	seid   SEID
	ctls   []Control
	index  map[string]int
	values map[string]int
	events *EventManager

	// onSet validates/reacts to a set before it lands; returning an error
	// rejects the change. May adjust other values via SetLockedInternal.
	onSet func(f *BaseFCM, id string, v int) error
	// onDo executes an action; the BaseFCM posts no event itself for
	// actions (the hook mutates values as needed).
	onDo func(f *BaseFCM, id string) error
}

// NewBaseFCM builds an FCM with the given kind and control surface.
// Control Init values seed the value store. Descriptors are validated.
func NewBaseFCM(kind string, controls []Control) (*BaseFCM, error) {
	f := &BaseFCM{
		kind:   kind,
		ctls:   make([]Control, len(controls)),
		index:  make(map[string]int, len(controls)),
		values: make(map[string]int, len(controls)),
	}
	copy(f.ctls, controls)
	for i, c := range f.ctls {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if _, dup := f.index[c.ID]; dup {
			return nil, fmt.Errorf("havi: duplicate control id %q", c.ID)
		}
		f.index[c.ID] = i
		f.values[c.ID] = c.Init
	}
	return f, nil
}

// SetHooks installs the state-machine hooks (called before construction
// completes; not safe after the FCM is attached).
func (f *BaseFCM) SetHooks(onSet func(*BaseFCM, string, int) error, onDo func(*BaseFCM, string) error) {
	f.onSet = onSet
	f.onDo = onDo
}

// Kind returns the FCM class ("tuner", "vcr", "amplifier", …).
func (f *BaseFCM) Kind() string { return f.kind }

// SEID returns the element address (assigned when the DCM attaches).
func (f *BaseFCM) SEID() SEID {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seid
}

// bind assigns the SEID and event sink; called by the DCM at attach time.
func (f *BaseFCM) bind(id SEID, events *EventManager) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seid = id
	f.events = events
}

// Controls returns the DDI control surface.
func (f *BaseFCM) Controls() []Control {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Control, len(f.ctls))
	copy(out, f.ctls)
	return out
}

// Get returns the current value of a control.
func (f *BaseFCM) Get(id string) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.values[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s.%s", ErrUnknownControl, f.kind, id)
	}
	return v, nil
}

// Set changes a settable control (toggle/range/select).
func (f *BaseFCM) Set(id string, v int) error {
	f.mu.Lock()
	i, ok := f.index[id]
	if !ok {
		f.mu.Unlock()
		return fmt.Errorf("%w: %s.%s", ErrUnknownControl, f.kind, id)
	}
	c := f.ctls[i]
	switch c.Kind {
	case ControlReadout:
		f.mu.Unlock()
		return fmt.Errorf("%w: %s.%s", ErrReadOnly, f.kind, id)
	case ControlAction:
		f.mu.Unlock()
		return fmt.Errorf("%w: %s.%s (use Do)", ErrNotAction, f.kind, id)
	case ControlToggle:
		if v != 0 && v != 1 {
			f.mu.Unlock()
			return fmt.Errorf("%w: %s.%s=%d", ErrBadValue, f.kind, id, v)
		}
	case ControlRange:
		if v < c.Min || v > c.Max {
			f.mu.Unlock()
			return fmt.Errorf("%w: %s.%s=%d not in [%d,%d]", ErrBadValue, f.kind, id, v, c.Min, c.Max)
		}
	case ControlSelect:
		if v < 0 || v >= len(c.Options) {
			f.mu.Unlock()
			return fmt.Errorf("%w: %s.%s=%d", ErrBadValue, f.kind, id, v)
		}
	}
	if f.onSet != nil {
		if err := f.onSet(f, id, v); err != nil {
			f.mu.Unlock()
			return err
		}
	}
	changed := f.values[id] != v
	f.values[id] = v
	seid := f.seid
	events := f.events
	f.mu.Unlock()

	if changed && events != nil {
		events.Post(Event{Type: EventFCMChanged, Source: seid, Key: id, Value: v})
	}
	return nil
}

// Do triggers an action control.
func (f *BaseFCM) Do(id string) error {
	f.mu.Lock()
	i, ok := f.index[id]
	if !ok {
		f.mu.Unlock()
		return fmt.Errorf("%w: %s.%s", ErrUnknownControl, f.kind, id)
	}
	if f.ctls[i].Kind != ControlAction {
		f.mu.Unlock()
		return fmt.Errorf("%w: %s.%s", ErrNotAction, f.kind, id)
	}
	if f.onDo == nil {
		f.mu.Unlock()
		return nil
	}
	err := f.onDo(f, id)
	f.mu.Unlock()
	return err
}

// SetLockedInternal updates a value from inside a hook (lock already
// held), bypassing writability checks. The change event is posted
// immediately; the event manager is asynchronous, so subscribers never
// observe the lock held. Must only be called from onSet/onDo hooks.
func (f *BaseFCM) SetLockedInternal(id string, v int) {
	if f.values[id] == v {
		return
	}
	f.values[id] = v
	if f.events != nil {
		f.events.Post(Event{Type: EventFCMChanged, Source: f.seid, Key: id, Value: v})
	}
}

// SetInternal updates a value bypassing hooks and writability checks —
// used by appliance simulators for genuine hardware state (a tape
// finishing rewind). Range checks still apply silently via clamping.
func (f *BaseFCM) SetInternal(id string, v int) {
	f.mu.Lock()
	i, ok := f.index[id]
	if !ok {
		f.mu.Unlock()
		return
	}
	c := f.ctls[i]
	if c.Kind == ControlRange {
		if v < c.Min {
			v = c.Min
		}
		if v > c.Max {
			v = c.Max
		}
	}
	changed := f.values[id] != v
	f.values[id] = v
	seid := f.seid
	events := f.events
	f.mu.Unlock()
	if changed && events != nil {
		events.Post(Event{Type: EventFCMChanged, Source: seid, Key: id, Value: v})
	}
}

// GetLocked reads a value from inside a hook (lock already held).
func (f *BaseFCM) GetLocked(id string) int { return f.values[id] }

// HandleMessage implements Handler, exposing the FCM over the message
// system with the fcm.* operation vocabulary.
func (f *BaseFCM) HandleMessage(m Message) (Reply, error) {
	switch m.Op {
	case OpDescribe:
		data, err := MarshalControls(f.Controls())
		if err != nil {
			return Reply{}, err
		}
		return Reply{Str: f.kind, Data: data}, nil
	case OpGet:
		v, err := f.Get(m.Key)
		if err != nil {
			return Reply{}, err
		}
		return Reply{Value: v}, nil
	case OpSet:
		return Reply{}, f.Set(m.Key, m.Value)
	case OpDo:
		return Reply{}, f.Do(m.Key)
	default:
		return Reply{}, fmt.Errorf("%w: %q", ErrUnknownOp, m.Op)
	}
}
