// Package hub is the multi-tenant home hub: one process hosting many
// households' universal-interaction stacks behind a single listener.
//
// The paper's prototype serves one home to one user; the hub is the layer
// that hosts thousands of those single-home units. It owns a sharded
// registry of hub-hosted sessions (power-of-two shard count, per-shard
// mutex for writes, a lock-free copy-on-write read path for routing),
// routes inbound proxy connections to the right home by home ID, and
// manages per-home lifecycle: admission on first use, idle eviction, and
// graceful drain. Each accepted connection has one goroutine for its life
// (Serve → ServeConn → Route → Host.Attach, which reads it); when Route
// returns, the session has retired and the home is unpinned.
//
// The hub is deliberately ignorant of what a home is — it hosts anything
// implementing Host (plain connection handlers lift themselves with
// AdaptConnHandler). The root uniint package provides the production
// implementation (uniint.NewSessionForHub); tests substitute stubs.
//
// Homes hosted by one hub typically share a single content-addressed tile
// cache (uniint.Options.Tiles), so the Nth identical control panel encodes
// once and later sessions ship cache references. The cache is keyed by
// content hash, not by home, so it survives idle eviction of the homes
// that populated it.
package hub

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
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

// entry is one resident home.
type entry struct {
	id   string
	home Host

	refs     atomic.Int64 // connections currently routed to the home
	lastUsed atomic.Int64 // unix nanos of last admission/route/disconnect
	evicted  atomic.Bool  // set once, under the owning shard's mutex
}

func (e *entry) touch() { e.lastUsed.Store(time.Now().UnixNano()) }

// shard is one registry partition. Writers (admit, evict) take mu and
// publish a fresh map; readers load the map pointer atomically and never
// lock — the routing path is lock-free.
type shard struct {
	mu    sync.Mutex
	homes atomic.Pointer[map[string]*entry]
}

func (sh *shard) snapshot() map[string]*entry {
	if m := sh.homes.Load(); m != nil {
		return *m
	}
	return nil
}

// publish replaces the shard map with a copy that has id set to e
// (or removed when e is nil). Callers hold sh.mu.
func (sh *shard) publish(id string, e *entry) {
	old := sh.snapshot()
	next := make(map[string]*entry, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	if e == nil {
		delete(next, id)
	} else {
		next[id] = e
	}
	sh.homes.Store(&next)
}

// shardCount is the registry's partition count, a power of two: more
// shards spread admission contention.
const shardCount = 64

// Hub hosts many homes in one process.
type Hub struct {
	opts   Options
	shards [shardCount]shard

	resident atomic.Int64 // homes currently resident (admission control)
	conns    atomic.Int64 // live routed connections (hub-local; the gauge may be shared)
	closed   atomic.Bool
	draining atomic.Bool

	// The eviction janitor: a runtime timer that re-arms itself after
	// each sweep, so sweeps never overlap. Close stops and clears it under
	// janitorMu, which each fire holds across its sweep.
	janitorMu sync.Mutex
	janitor   *time.Timer

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
		opts: opts,

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
		h.janitorMu.Lock()
		h.janitor = time.AfterFunc(h.sweepEvery(), h.janitorFire)
		h.janitorMu.Unlock()
	}
	return h, nil
}

// hashID is FNV-1a over the home ID: allocation-free and well mixed for
// the short string keys homes use.
func hashID(id string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return h
}

func (h *Hub) shardFor(id string) *shard { return &h.shards[hashID(id)&(shardCount-1)] }

// lookup is the lock-free read path: an atomic map-pointer load plus a
// map read. No mutex is ever taken for a resident home.
func (h *Hub) lookup(id string) *entry {
	return h.shardFor(id).snapshot()[id]
}

// Get returns the resident home for id without admitting, or
// ErrUnknownHome.
func (h *Hub) Get(id string) (Host, error) {
	if e := h.lookup(id); e != nil {
		return e.home, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrUnknownHome, id)
}

// Admit returns the home for id, creating it via the factory on first
// use. Concurrent admissions of the same ID yield one home.
func (h *Hub) Admit(id string) (Host, error) {
	if e := h.lookup(id); e != nil {
		h.mRouteHits.Inc()
		e.touch()
		return e.home, nil
	}
	h.mRouteMisses.Inc()
	if h.closed.Load() {
		h.mRejects.Inc()
		return nil, ErrClosed
	}
	if h.draining.Load() {
		h.mRejects.Inc()
		return nil, ErrDraining
	}

	sh := h.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Re-check lifecycle under the lock: a Close or Drain that ran after
	// the fast-path check must not have a home published behind it.
	if h.closed.Load() {
		h.mRejects.Inc()
		return nil, ErrClosed
	}
	if h.draining.Load() {
		h.mRejects.Inc()
		return nil, ErrDraining
	}
	if e := sh.snapshot()[id]; e != nil { // lost the admission race
		e.touch()
		return e.home, nil
	}
	if h.opts.MaxHomes > 0 && h.resident.Load() >= int64(h.opts.MaxHomes) {
		h.mRejects.Inc()
		return nil, fmt.Errorf("%w (%d homes)", ErrFull, h.opts.MaxHomes)
	}
	home, err := h.opts.Factory(id)
	if err != nil {
		return nil, fmt.Errorf("hub: admit %s: %w", id, err)
	}
	e := &entry{id: id, home: home}
	e.touch()
	sh.publish(id, e)
	h.resident.Add(1)
	h.mHomes.Inc()
	h.mAdmissions.Inc()
	return home, nil
}

// Route admits (if needed) the home for id and attaches one connection to
// it, blocking on the caller's goroutine until the peer has disconnected
// and the home has retired the session (see Host.Attach). The home is
// pinned against eviction for exactly that long — unpinned on the way out,
// so Connections() has dropped by the time Route returns: the refcount is
// incremented first and the eviction flag checked after, the mirror image
// of Evict's flag-then-refcount order, so one side always observes the
// other.
func (h *Hub) Route(id string, conn net.Conn) error {
	start := time.Now()
	for attempt := 0; attempt < 4; attempt++ {
		if _, err := h.Admit(id); err != nil {
			conn.Close()
			return err
		}
		e := h.lookup(id)
		if e == nil { // evicted between Admit and lookup; re-admit
			continue
		}
		// Pin before checking the flags. conns.Add precedes the closed
		// check, so any pin that observes closed==false is ordered before
		// Close's store of closed — Close's connection wait (which starts
		// after that store) cannot read zero while this pin is live. A
		// plain atomic counter, unlike sync.WaitGroup, tolerates a late
		// pin racing the wait: it just bounces off the flag check below.
		e.refs.Add(1)
		h.conns.Add(1)
		if e.evicted.Load() || h.closed.Load() {
			h.conns.Add(-1)
			e.refs.Add(-1)
			if h.closed.Load() {
				conn.Close()
				return ErrClosed
			}
			continue // lost to a concurrent eviction; re-admit
		}
		h.mConns.Inc()
		h.mRouteSeconds.ObserveDuration(time.Since(start))
		defer func() {
			e.refs.Add(-1)
			e.touch()
			h.mConns.Dec()
			h.conns.Add(-1)
		}()
		return e.home.Attach(conn)
	}
	conn.Close()
	return fmt.Errorf("%w: %s (admission/eviction livelock)", ErrUnknownHome, id)
}

// PreambleTimeout bounds how long ServeConn waits for the routing
// preamble, so a silent client cannot park a routing goroutine forever.
const PreambleTimeout = 10 * time.Second

// ServeConn reads the routing preamble from conn and routes it. It blocks
// for the life of the connection; Serve runs it per accepted connection.
// A TokenHome preamble routes by resume token: the hub finds the
// resident home whose detach lot holds the session.
func (h *Hub) ServeConn(conn net.Conn) error {
	t0 := time.Now()
	_ = conn.SetReadDeadline(t0.Add(PreambleTimeout))
	p, rc, err := ReadPreamble(conn)
	if err != nil {
		conn.Close()
		return err
	}
	_ = conn.SetReadDeadline(time.Time{})
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
func (h *Hub) FindToken(token string) (string, bool) {
	for i := range h.shards {
		for id, e := range h.shards[i].snapshot() {
			if e.home.HasParked(token) {
				return id, true
			}
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
		// goroutine-ok: Serve is the accept loop; a routed conn's Attach reads
		// it on this goroutine for the conn's life.
		go func() { _ = h.ServeConn(conn) }()
	}
}

// Evict removes the home when it is resident, has no live connections
// and parks no disconnected sessions. It reports whether an eviction
// happened. The home's Close runs outside the shard lock.
//
// The parked check is race-free against a resume claim. The parked count
// drops at TTL expiry, capacity eviction and export, which leave nothing
// here to resume, and when a resume goes live: inside a routed handshake
// that Route pinned first, the claimed session counting as parked until
// then. So an eviction observing refs == 0 sees every completed park, and
// any in-flight resume shows up as either a pin or a parked session.
func (h *Hub) Evict(id string) bool {
	sh := h.shardFor(id)
	sh.mu.Lock()
	e := sh.snapshot()[id]
	if e == nil {
		sh.mu.Unlock()
		return false
	}
	// refused reports a home that must stay: pinned by a connection, or
	// (park-aware) holding a detached session that waits for its roaming
	// owner — the lot's TTL empties it eventually, after which eviction
	// proceeds.
	refused := func() bool {
		if e.refs.Load() > 0 {
			return true
		}
		if e.home.Parked() > 0 {
			h.mParkSkips.Inc()
			return true
		}
		return false
	}
	// Refuse a busy home without raising the flag: a Route that pinned
	// while a doomed eviction held it up would bounce, and burn one of its
	// attempts, for an eviction that never happens.
	if refused() {
		sh.mu.Unlock()
		return false
	}
	// Flag first, then check the pin count (Route pins then checks the
	// flag): whichever side runs second sees the other and backs off.
	e.evicted.Store(true)
	if refused() {
		e.evicted.Store(false)
		sh.mu.Unlock()
		return false
	}
	sh.publish(id, nil)
	h.resident.Add(-1)
	sh.mu.Unlock()

	e.home.Close()
	h.mHomes.Dec()
	h.mEvictions.Inc()
	return true
}

// Release removes the home from the registry without closing it,
// transferring ownership to the caller: the federation layer evacuates a
// node by exporting the home's parked sessions, releasing the entry here
// and deciding itself whether the underlying host (which may be shared
// infrastructure living outside the hub process) should close. Like
// Evict it refuses while connections are pinned, but it ignores parked
// sessions — the caller is expected to have exported them. Returns the
// host and true on success.
func (h *Hub) Release(id string) (Host, bool) {
	sh := h.shardFor(id)
	sh.mu.Lock()
	e := sh.snapshot()[id]
	if e == nil {
		sh.mu.Unlock()
		return nil, false
	}
	// Same protocol as Evict: refuse a pinned home without raising the
	// flag, then flag-then-refcount so whichever of Release/Route runs
	// second sees the other and backs off.
	if e.refs.Load() > 0 {
		sh.mu.Unlock()
		return nil, false
	}
	e.evicted.Store(true)
	if e.refs.Load() > 0 {
		e.evicted.Store(false)
		sh.mu.Unlock()
		return nil, false
	}
	sh.publish(id, nil)
	h.resident.Add(-1)
	sh.mu.Unlock()

	h.mHomes.Dec()
	h.mReleases.Inc()
	return e.home, true
}

// sweepEvery is the eviction janitor's period.
func (h *Hub) sweepEvery() time.Duration { return max(h.opts.IdleTimeout/4, time.Second) }

// janitorFire sweeps and re-arms, unless it lost the race with Close
// and finds the janitor cleared.
func (h *Hub) janitorFire() {
	h.janitorMu.Lock()
	defer h.janitorMu.Unlock()
	if h.janitor == nil {
		return
	}
	h.sweep()
	h.janitor.Reset(h.sweepEvery())
}

// sweep evicts every home idle beyond IdleTimeout with no connections.
func (h *Hub) sweep() {
	cutoff := time.Now().Add(-h.opts.IdleTimeout).UnixNano()
	for i := range h.shards {
		for id, e := range h.shards[i].snapshot() {
			if e.refs.Load() == 0 && e.lastUsed.Load() < cutoff {
				h.Evict(id)
			}
		}
	}
}

// Homes returns the number of resident homes.
func (h *Hub) Homes() int { return int(h.resident.Load()) }

// Connections returns the number of live routed connections on this hub
// (hub-local state — independent of registry sharing across hubs).
func (h *Hub) Connections() int64 { return h.conns.Load() }

// HomeIDs lists resident home IDs (order unspecified).
func (h *Hub) HomeIDs() []string {
	var out []string
	for i := range h.shards {
		for id := range h.shards[i].snapshot() {
			out = append(out, id)
		}
	}
	return out
}

// Drain stops new admissions and waits up to timeout for live
// connections to finish naturally. It returns nil when the hub went
// quiet, or an error with the number of connections still open. Either
// way the hub still needs Close to release homes.
func (h *Hub) Drain(timeout time.Duration) error {
	h.draining.Store(true)
	deadline := time.Now().Add(timeout)
	for {
		if h.Connections() == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("hub: drain timeout with %d connections open", h.Connections())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Close stops the janitor, closes every home (which disconnects their
// sessions), and waits for routed connections to unwind.
func (h *Hub) Close() {
	if h.closed.Swap(true) {
		return
	}
	h.janitorMu.Lock() // waits out a sweep in flight
	if h.janitor != nil {
		h.janitor.Stop()
		h.janitor = nil
	}
	h.janitorMu.Unlock()
	for i := range h.shards {
		sh := &h.shards[i]
		sh.mu.Lock()
		entries := sh.snapshot()
		for _, e := range entries {
			// Same protocol as Evict: flag first so an in-flight Route
			// that pinned a stale snapshot entry bounces off it.
			e.evicted.Store(true)
		}
		empty := map[string]*entry{}
		sh.homes.Store(&empty)
		sh.mu.Unlock()
		for _, e := range entries {
			e.home.Close()
			h.resident.Add(-1)
			h.mHomes.Dec()
		}
	}
	// Wait for routed connections to unwind (closing the homes above
	// disconnects their sessions, so each retires and unpins promptly).
	for h.conns.Load() > 0 {
		time.Sleep(time.Millisecond)
	}
}
