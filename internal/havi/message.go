package havi

import (
	"errors"
	"fmt"
	"sync"
)

// Message is one unit of software-element communication. Op selects the
// operation; Key/Value carry simple control arguments; Data carries opaque
// payloads (JSON for structured results such as DDI descriptors).
type Message struct {
	Src, Dst SEID
	Op       string
	Key      string
	Value    int
	Data     []byte
}

// Reply is the synchronous answer to a Call.
type Reply struct {
	Value int
	Str   string
	Data  []byte
}

// Handler processes messages addressed to one software element. Handlers
// are invoked sequentially per element for async sends, and directly on the
// caller's goroutine for Call.
type Handler interface {
	HandleMessage(m Message) (Reply, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(m Message) (Reply, error)

// HandleMessage implements Handler.
func (f HandlerFunc) HandleMessage(m Message) (Reply, error) { return f(m) }

// Errors returned by the message system.
var (
	ErrUnknownElement = errors.New("havi: unknown software element")
	ErrUnknownOp      = errors.New("havi: unknown operation")
	ErrClosed         = errors.New("havi: middleware closed")
)

// MessageSystem routes messages between registered software elements.
type MessageSystem struct {
	mu       sync.RWMutex
	elements map[SEID]Handler
	disp     *dispatcher
}

func newMessageSystem(disp *dispatcher) *MessageSystem {
	return &MessageSystem{
		elements: make(map[SEID]Handler),
		disp:     disp,
	}
}

// Register binds a handler to a SEID. Re-registering an existing SEID
// replaces the handler (the element rejoined after a bus reset).
func (ms *MessageSystem) Register(id SEID, h Handler) error {
	if id.Zero() {
		return fmt.Errorf("havi: register zero SEID: %w", ErrUnknownElement)
	}
	if h == nil {
		return errors.New("havi: nil handler")
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.elements[id] = h
	return nil
}

// Unregister removes the element. Unknown SEIDs are ignored.
func (ms *MessageSystem) Unregister(id SEID) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	delete(ms.elements, id)
}

// Lookup reports whether an element is currently registered.
func (ms *MessageSystem) Lookup(id SEID) bool {
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	_, ok := ms.elements[id]
	return ok
}

// Call delivers m synchronously and returns the element's reply.
func (ms *MessageSystem) Call(m Message) (Reply, error) {
	ms.mu.RLock()
	h, ok := ms.elements[m.Dst]
	ms.mu.RUnlock()
	if !ok {
		return Reply{}, fmt.Errorf("havi: call %s op %q: %w", m.Dst, m.Op, ErrUnknownElement)
	}
	return h.HandleMessage(m)
}

// Send delivers m asynchronously through the middleware dispatcher; the
// reply (and any error) is discarded. Returns ErrClosed after shutdown and
// ErrUnknownElement when the destination does not exist at enqueue time.
func (ms *MessageSystem) Send(m Message) error {
	ms.mu.RLock()
	h, ok := ms.elements[m.Dst]
	ms.mu.RUnlock()
	if !ok {
		return fmt.Errorf("havi: send %s op %q: %w", m.Dst, m.Op, ErrUnknownElement)
	}
	if !ms.disp.post(func() { _, _ = h.HandleMessage(m) }) {
		return ErrClosed
	}
	return nil
}
