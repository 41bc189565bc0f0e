// Package hub is the multi-tenant home hub: one process hosting many
// households' universal-interaction stacks behind a single listener.
//
// The paper's prototype serves one home to one user; the hub is the layer
// that hosts thousands of those single-home units. It owns a table of
// resident homes under one mutex, routes inbound proxy connections to the
// right home by home ID, and manages per-home lifecycle: admission on
// first use, idle eviction, and graceful drain. The table is read once
// per connection, never per interaction, so one lock serves it: a route
// pins its home in the critical section that finds it, and an eviction
// checks the pins in the one that unlists it. Each accepted connection
// has one goroutine for its life (Serve → ServeConn → Route →
// Host.Attach, which reads it); when Route returns, the session has
// retired and the home is unpinned. Drain, Release and Close wait on a pin
// count dropping to zero, and Close returns once all the hub started has.
//
// The hub is deliberately ignorant of what a home is — it hosts anything
// implementing Host (plain connection handlers lift themselves with
// AdaptConnHandler). The root uniint package provides the production
// implementation (uniint.NewSessionForHub, whose homes share one tile
// cache: see uniint.TileCache); tests substitute stubs.
package hub

import (
	"errors"
	"fmt"
	"maps"
	"net"
	"slices"
	"sync"
	"time"

	"uniint/internal/metrics"
	"uniint/internal/trace"
)

// Errors returned by the hub.
var (
	ErrClosed      = errors.New("hub: closed")
	ErrFull        = errors.New("hub: at home capacity")
	ErrUnknownHome = errors.New("hub: unknown home")
	ErrDraining    = errors.New("hub: draining")
)

// Factory builds the Host for a home ID on admission. Homes that are only
// a ConnHandler wrap themselves with AdaptConnHandler.
type Factory func(homeID string) (Host, error)

// Options configures a Hub.
type Options struct {
	// Factory builds homes on admission (required).
	Factory Factory
	// MaxHomes caps resident homes; 0 means unlimited. Admissions beyond
	// the cap fail with ErrFull.
	MaxHomes int
	// IdleTimeout evicts homes with no connections and no activity for
	// this long; 0 disables eviction. The janitor sweeps every
	// IdleTimeout/4, and at most once a second.
	IdleTimeout time.Duration
	// Metrics receives the hub's instruments (default metrics.Default()).
	Metrics *metrics.Registry
}

// entry is one resident home. home never changes once the entry is
// listed; refs and lastUsed are guarded by Hub.mu.
type entry struct {
	home     Host
	refs     int       // connections currently routed to the home
	lastUsed time.Time // last admission, route or disconnect
}

// Hub hosts many homes in one process.
type Hub struct {
	opts Options

	// mu guards the home table, every entry's pins and the lifecycle
	// flags. Calls that can block (Factory, and a home's HasParked, Close
	// and Attach) run outside it; Parked does not block and runs under it,
	// so an eviction reads the parked count and the pins as one.
	mu       sync.Mutex
	homes    map[string]*entry
	conns    int64 // live routed connections (hub-local; the gauge may be shared)
	closed   bool
	draining bool
	unpinned chan struct{}     // closed when a pin count next drops to 0; made by a waiter
	reading  map[net.Conn]bool // Serve's conns reading their preamble; Close closes them
	joins    sync.WaitGroup    // Serve's goroutines and the janitor's fire; Close waits

	// admitMu serialises admissions, so one id gets exactly one Factory
	// call. The factory runs under it but outside mu: a cold build never
	// holds up routing to a resident home.
	admitMu sync.Mutex

	// The eviction janitor: a runtime timer that re-arms itself after
	// each sweep, under mu and unless the hub has closed, so sweeps never
	// overlap. joins counts its fire while armed or running.
	janitor *time.Timer

	// Pre-resolved instruments (hot path: no registry lookups).
	mHomes        *metrics.Gauge
	mConns        *metrics.Gauge
	mAdmissions   *metrics.Counter
	mEvictions    *metrics.Counter
	mRouteHits    *metrics.Counter
	mRouteMisses  *metrics.Counter
	mRejects      *metrics.Counter
	mTokenRoutes  *metrics.Counter
	mTokenMisses  *metrics.Counter
	mParkSkips    *metrics.Counter
	mReleases     *metrics.Counter
	mRouteSeconds *metrics.Histogram
}

// New creates a hub. Options.Factory is required.
func New(opts Options) (*Hub, error) {
	if opts.Factory == nil {
		return nil, errors.New("hub: Options.Factory is required")
	}
	if opts.Metrics == nil {
		opts.Metrics = metrics.Default()
	}
	h := &Hub{
		opts:    opts,
		homes:   make(map[string]*entry),
		reading: make(map[net.Conn]bool),

		mHomes:        opts.Metrics.Gauge("hub_homes"),
		mConns:        opts.Metrics.Gauge("hub_connections"),
		mAdmissions:   opts.Metrics.Counter("hub_admissions_total"),
		mEvictions:    opts.Metrics.Counter("hub_evictions_total"),
		mRouteHits:    opts.Metrics.Counter("hub_route_hits_total"),
		mRouteMisses:  opts.Metrics.Counter("hub_route_misses_total"),
		mRejects:      opts.Metrics.Counter("hub_rejects_total"),
		mTokenRoutes:  opts.Metrics.Counter("hub_token_routes_total"),
		mTokenMisses:  opts.Metrics.Counter("hub_token_route_misses_total"),
		mParkSkips:    opts.Metrics.Counter("hub_evictions_skipped_parked_total"),
		mReleases:     opts.Metrics.Counter("hub_releases_total"),
		mRouteSeconds: opts.Metrics.Histogram("hub_route_seconds", metrics.LatencyBuckets()),
	}
	if opts.IdleTimeout > 0 {
		h.mu.Lock()
		h.joins.Add(1)
		h.janitor = time.AfterFunc(h.sweepEvery(), h.janitorFire)
		h.mu.Unlock()
	}
	return h, nil
}

// Get returns the resident home for id without admitting, or
// ErrUnknownHome.
func (h *Hub) Get(id string) (Host, error) {
	h.mu.Lock()
	e := h.homes[id]
	h.mu.Unlock()
	if e == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownHome, id)
	}
	return e.home, nil
}

// Admit returns the home for id, creating it via the factory on first
// use. Concurrent admissions of the same ID yield one home.
func (h *Hub) Admit(id string) (Host, error) {
	e, err := h.admit(id, 0)
	if err != nil {
		return nil, err
	}
	return e.home, nil
}

// admit returns the entry for id, building its home on first use, and
// pins it for pins connections in the critical section that finds or
// lists it.
func (h *Hub) admit(id string, pins int) (*entry, error) {
	h.mu.Lock()
	if e := h.pin(id, pins); e != nil {
		h.mu.Unlock()
		h.mRouteHits.Inc()
		return e, nil
	}
	h.mRouteMisses.Inc()
	err := h.refuse()
	h.mu.Unlock()
	if err != nil {
		return nil, err
	}

	h.admitMu.Lock()
	defer h.admitMu.Unlock()
	h.mu.Lock()
	e := h.pin(id, pins) // lost the admission race
	if e == nil {
		err = h.refuse()
	}
	h.mu.Unlock()
	if e != nil || err != nil {
		return e, err
	}
	home, err := h.opts.Factory(id)
	if err != nil {
		return nil, fmt.Errorf("hub: admit %s: %w", id, err)
	}
	// A Close or Drain that began during the build must not have a home
	// listed behind it.
	h.mu.Lock()
	if err = h.refuse(); err == nil {
		h.homes[id] = &entry{home: home}
		e = h.pin(id, pins)
	}
	h.mu.Unlock()
	if err != nil {
		home.Close()
		return nil, err
	}
	h.mHomes.Inc()
	h.mAdmissions.Inc()
	return e, nil
}

// pin finds the entry for id, adds n connections to its pins and stamps
// it used. The caller holds mu.
func (h *Hub) pin(id string, n int) *entry {
	e := h.homes[id]
	if e != nil {
		e.refs += n
		e.lastUsed = time.Now()
		h.conns += int64(n)
	}
	return e
}

// refuse returns why no new home may be listed now, counting the
// rejection, or nil. The caller holds mu.
func (h *Hub) refuse() error {
	var err error
	switch {
	case h.closed:
		err = ErrClosed
	case h.draining:
		err = ErrDraining
	case h.opts.MaxHomes > 0 && len(h.homes) >= h.opts.MaxHomes:
		err = fmt.Errorf("%w (%d homes)", ErrFull, h.opts.MaxHomes)
	default:
		return nil
	}
	h.mRejects.Inc()
	return err
}

// Route admits (if needed) the home for id and attaches one connection to
// it, blocking on the caller's goroutine until the peer has disconnected
// and the home has retired the session (see Host.Attach). The home is
// pinned against eviction for exactly that long: pinned where it is found
// or listed, unpinned on the way out, so Connections() has dropped by the
// time Route returns.
func (h *Hub) Route(id string, conn net.Conn) error {
	start := time.Now()
	e, err := h.admit(id, 1)
	if err != nil {
		conn.Close()
		return err
	}
	h.mConns.Inc()
	h.mRouteSeconds.ObserveDuration(time.Since(start))
	defer func() {
		h.mConns.Dec()
		h.mu.Lock()
		e.refs--
		e.lastUsed = time.Now()
		h.conns--
		var unpinned chan struct{}
		if e.refs == 0 {
			unpinned, h.unpinned = h.unpinned, nil
		}
		h.mu.Unlock()
		if unpinned != nil {
			close(unpinned) // last: Close may be waiting to join this route
		}
	}()
	return e.home.Attach(conn)
}

// await waits, with mu held, until done holds or expired fires (nil:
// never), reading done again each time a pin count drops to zero.
func (h *Hub) await(expired <-chan time.Time, done func() bool) bool {
	for !done() {
		if h.unpinned == nil {
			h.unpinned = make(chan struct{})
		}
		unpinned := h.unpinned
		h.mu.Unlock()
		select {
		case <-unpinned:
			h.mu.Lock()
		case <-expired:
			h.mu.Lock()
			return done()
		}
	}
	return true
}

// ServeConn reads the routing preamble from conn and routes it. It blocks
// for the life of the connection; Serve runs it per accepted connection.
// A TokenHome preamble routes by resume token: the hub finds the
// resident home whose detach lot holds the session.
func (h *Hub) ServeConn(conn net.Conn) error {
	t0 := time.Now()
	p, rc, err := ReadPreamble(conn)
	h.mu.Lock()
	delete(h.reading, conn)
	h.mu.Unlock()
	if err != nil {
		return err
	}
	home := p.HomeID
	if home == TokenHome {
		owner, ok := h.FindToken(p.Token)
		if !ok {
			h.mTokenMisses.Inc()
			h.mRejects.Inc()
			rc.Close()
			return fmt.Errorf("%w: no home holds session token", ErrUnknownHome)
		}
		home = owner
	}
	return h.ServePreamble(p, home, rc, t0)
}

// ServePreamble routes a connection whose preamble ServeConn or a front
// router read, from t0 on, and resolved to home: the home p names or, for
// a TokenHome preamble, the one FindToken found holding p.Token. A router
// passes what it found, so no home is probed twice for one route, and its
// own t0, so the hub_route span covers its read. Like Route, it blocks for
// the life of the connection.
func (h *Hub) ServePreamble(p Preamble, home string, conn net.Conn, t0 time.Time) error {
	if p.HomeID == TokenHome {
		h.mTokenRoutes.Inc()
	}
	// The hub routes connections, not events: annotate the connection
	// with its preamble-to-handoff window so the server can attach a
	// hub_route span to every traced interaction arriving on it.
	if trace.Enabled() {
		conn = trace.WithRoute(conn, t0.UnixNano(), time.Now().UnixNano())
	}
	return h.Route(home, conn)
}

// FindToken scans resident homes for the one parking the session
// token. O(resident homes), but only on the roam-back path — a
// reconnecting device that knows its home ID never gets here. The
// federation router uses it to locate a parked session across nodes.
// The probes run outside the table lock: HasParked may wait out a
// takeover.
func (h *Hub) FindToken(token string) (string, bool) {
	h.mu.Lock()
	homes := maps.Clone(h.homes)
	h.mu.Unlock()
	for id, e := range homes {
		if e.home.HasParked(token) {
			return id, true
		}
	}
	return "", false
}

// Serve accepts connections from ln until the listener closes.
func (h *Hub) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			conn.Close()
			continue
		}
		h.joins.Add(1) // under mu, so Close's Wait cannot miss it
		h.reading[conn] = true
		h.mu.Unlock()
		// goroutine-ok: one per accepted conn, which its home's Attach reads
		// for the conn's life; joined by Hub.Close.
		go func() {
			defer h.joins.Done()
			_ = h.ServeConn(conn)
		}()
	}
}

// Evict removes the home when it is resident, has no live connections
// and parks no disconnected sessions. It reports whether an eviction
// happened. The home's Close runs outside the table lock.
//
// The parked check is race-free against a resume claim. The parked count
// drops at TTL expiry, capacity eviction and export, which leave nothing
// here to resume, and when a resume goes live: inside a routed handshake
// that Route pinned first, the claimed session counting as parked until
// then. Evict reads the pins and the parked count in one critical
// section, so it sees every completed park, and any in-flight resume
// shows up as either a pin or a parked session.
func (h *Hub) Evict(id string) bool {
	h.mu.Lock()
	e := h.homes[id]
	if e != nil && e.refs == 0 && e.home.Parked() > 0 {
		h.mParkSkips.Inc()
		e = nil
	}
	if e == nil || e.refs > 0 {
		h.mu.Unlock()
		return false
	}
	delete(h.homes, id)
	h.mHomes.Dec()
	h.mu.Unlock()
	e.home.Close()
	h.mEvictions.Inc()
	return true
}

// Release removes the home from the registry without closing it,
// transferring ownership to the caller: the federation layer evacuates a
// node by exporting the home's parked sessions, releasing the entry here
// and deciding itself whether the underlying host (which may be shared
// infrastructure living outside the hub process) should close. It ignores
// parked sessions, which the caller has exported, and waits up to timeout
// for pinned connections (a straggler racing the caller's detach) to
// unwind. A home that is not resident releases as nil and no error.
func (h *Hub) Release(id string, timeout time.Duration) (Host, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var e *entry
	if !h.await(time.After(timeout), func() bool { e = h.homes[id]; return e == nil || e.refs == 0 }) {
		return nil, fmt.Errorf("hub: release %s: %d connections still pinned after %v", id, e.refs, timeout)
	}
	if e == nil {
		return nil, nil
	}
	delete(h.homes, id)
	h.mHomes.Dec()
	h.mReleases.Inc()
	return e.home, nil
}

// sweepEvery is the eviction janitor's period.
func (h *Hub) sweepEvery() time.Duration { return max(h.opts.IdleTimeout/4, time.Second) }

// janitorFire sweeps and re-arms, unless the hub has closed.
func (h *Hub) janitorFire() {
	defer h.joins.Done()
	h.sweep()
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.closed {
		h.joins.Add(1)
		h.janitor.Reset(h.sweepEvery())
	}
}

// sweep evicts every home idle beyond IdleTimeout with no connections.
func (h *Hub) sweep() {
	cutoff := time.Now().Add(-h.opts.IdleTimeout)
	var idle []string
	h.mu.Lock()
	for id, e := range h.homes {
		if e.refs == 0 && e.lastUsed.Before(cutoff) {
			idle = append(idle, id)
		}
	}
	h.mu.Unlock()
	for _, id := range idle {
		h.Evict(id)
	}
}

// Homes returns the number of resident homes.
func (h *Hub) Homes() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.homes)
}

// Connections returns the number of live routed connections on this hub
// (hub-local state, whoever else shares its metrics registry).
func (h *Hub) Connections() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.conns
}

// HomeIDs lists resident home IDs, sorted.
func (h *Hub) HomeIDs() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return slices.Sorted(maps.Keys(h.homes))
}

// Drain stops new admissions and waits up to timeout for live
// connections to finish naturally. It returns nil when the hub went
// quiet, or an error with the number of connections still open. Either
// way the hub still needs Close to release homes.
func (h *Hub) Drain(timeout time.Duration) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.draining = true
	if !h.await(time.After(timeout), func() bool { return h.conns == 0 }) {
		return fmt.Errorf("hub: drain timeout with %d connections open", h.conns)
	}
	return nil
}

// Close closes the conns still reading their preamble, stops the janitor
// and closes every home (which disconnects their sessions), and returns
// once every route has unpinned and everything in joins has returned.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	homes := h.homes
	h.homes = make(map[string]*entry)
	for conn := range h.reading {
		conn.Close()
	}
	h.mu.Unlock()
	if h.janitor != nil && h.janitor.Stop() {
		h.joins.Done() // the fire it cancelled; one in flight re-arms nothing now
	}
	// Wait out an admission in flight: it finds the hub closed and closes
	// the home it built.
	h.admitMu.Lock()
	h.admitMu.Unlock()
	for _, e := range homes {
		e.home.Close()
		h.mHomes.Dec()
	}
	// The homes' sessions are disconnected, so each route unpins promptly.
	h.mu.Lock()
	h.await(nil, func() bool { return h.conns == 0 })
	h.mu.Unlock()
	h.joins.Wait()
}
