package havi

import (
	"sort"
	"sync"
)

// Entry is one registry record: a software element and its attributes.
// Conventional attribute keys: "type" ("dcm"/"fcm"/"app"), "class"
// (appliance class for DCMs), "kind" (FCM kind), "name", "guid".
type Entry struct {
	SEID  SEID
	Attrs map[string]string
}

// clone deep-copies the entry so callers cannot mutate registry state.
func (e Entry) clone() Entry {
	attrs := make(map[string]string, len(e.Attrs))
	for k, v := range e.Attrs {
		attrs[k] = v
	}
	return Entry{SEID: e.SEID, Attrs: attrs}
}

// ChangeKind discriminates registry change notifications.
type ChangeKind int

// Registry change kinds.
const (
	EntryAdded ChangeKind = iota + 1
	EntryRemoved
)

// Change describes one registry mutation, delivered to watchers.
type Change struct {
	Kind  ChangeKind
	Entry Entry
}

// Registry is the attribute-based lookup service software elements use to
// discover each other: the home appliance application queries it for DCMs
// and FCMs of the currently connected appliances.
type Registry struct {
	mu       sync.RWMutex
	entries  map[SEID]Entry
	watchers map[int]func(Change)
	nextID   int
	disp     *dispatcher
}

func newRegistry(disp *dispatcher) *Registry {
	return &Registry{
		entries:  make(map[SEID]Entry),
		watchers: make(map[int]func(Change)),
		disp:     disp,
	}
}

// Register adds (or replaces) an entry and notifies watchers.
func (r *Registry) Register(e Entry) {
	e = e.clone()
	r.mu.Lock()
	_, replacing := r.entries[e.SEID]
	r.entries[e.SEID] = e
	r.mu.Unlock()
	if replacing {
		r.notify(Change{Kind: EntryRemoved, Entry: e})
	}
	r.notify(Change{Kind: EntryAdded, Entry: e})
}

// Unregister removes an entry; unknown SEIDs are ignored.
func (r *Registry) Unregister(id SEID) {
	r.mu.Lock()
	e, ok := r.entries[id]
	if ok {
		delete(r.entries, id)
	}
	r.mu.Unlock()
	if ok {
		r.notify(Change{Kind: EntryRemoved, Entry: e})
	}
}

func (r *Registry) notify(c Change) {
	r.mu.RLock()
	fns := make([]func(Change), 0, len(r.watchers))
	for _, fn := range r.watchers {
		fns = append(fns, fn)
	}
	r.mu.RUnlock()
	for _, fn := range fns {
		fn := fn
		r.disp.post(func() { fn(c) })
	}
}

// Query returns every entry whose attributes include all of match's
// key/value pairs (logical AND of equality terms; an empty match returns
// everything). Results are sorted by SEID for determinism.
func (r *Registry) Query(match map[string]string) []Entry {
	r.mu.RLock()
	out := make([]Entry, 0, len(r.entries))
	for _, e := range r.entries {
		ok := true
		for k, v := range match {
			if e.Attrs[k] != v {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, e.clone())
		}
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].SEID.GUID != out[j].SEID.GUID {
			return out[i].SEID.GUID < out[j].SEID.GUID
		}
		return out[i].SEID.Handle < out[j].SEID.Handle
	})
	return out
}

// Count returns the number of registered entries.
func (r *Registry) Count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// Watch subscribes fn to registry changes; the returned id cancels via
// Unwatch. Notifications arrive asynchronously in registration order.
func (r *Registry) Watch(fn func(Change)) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	r.watchers[r.nextID] = fn
	return r.nextID
}

// Unwatch cancels a Watch subscription.
func (r *Registry) Unwatch(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.watchers, id)
}
