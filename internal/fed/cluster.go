package fed

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"uniint/internal/hub"
	"uniint/internal/metrics"
	"uniint/internal/rfb"
	"uniint/internal/trace"
)

// Errors returned by the cluster.
var (
	ErrNoNodes      = errors.New("fed: no member nodes")
	ErrUnknownNode  = errors.New("fed: unknown node")
	ErrDuplicate    = errors.New("fed: node already a member")
	ErrNotEvacuated = errors.New("fed: home still has pinned connections")
)

// DefaultDetachTimeout bounds how long a migration waits for a home's
// live sessions to force-park before giving up on the move.
const DefaultDetachTimeout = 5 * time.Second

// Node is one federation member: a named hub process (in this repo's
// in-process form, a *hub.Hub; a remote transport slots in behind the
// same surface later).
type Node struct {
	Name string
	Hub  *hub.Hub
}

// Options configures a Cluster.
type Options struct {
	// Metrics receives the federation instruments (default
	// metrics.Default()).
	Metrics *metrics.Registry
	// DetachTimeout bounds the force-park wait per migrated home
	// (default DefaultDetachTimeout).
	DetachTimeout time.Duration
}

// Cluster is the hub-of-hubs front: it owns the rendezvous ring and the
// member nodes, routes inbound connections to the member owning the
// preamble's home, and moves sessions between nodes when the topology
// changes — rebalance on join, evacuation on drain. Routing
// state swaps atomically (immutable Ring under a mutex), so connections
// arriving mid-migration land on the new owner and find their parked
// session already installed or arriving; a resume that outraces its
// record degrades to a full join, never an error.
type Cluster struct {
	detach time.Duration

	mu    sync.Mutex
	nodes map[string]*Node
	ring  *Ring

	mRoutes         *metrics.Counter
	mTokenRoutes    *metrics.Counter
	mRouteMisses    *metrics.Counter
	mMigrations     *metrics.Counter
	mMigrationBytes *metrics.Counter
}

// NewCluster creates an empty cluster; add members with AddNode.
func NewCluster(opts Options) *Cluster {
	if opts.Metrics == nil {
		opts.Metrics = metrics.Default()
	}
	if opts.DetachTimeout <= 0 {
		opts.DetachTimeout = DefaultDetachTimeout
	}
	return &Cluster{
		detach: opts.DetachTimeout,
		nodes:  make(map[string]*Node),
		ring:   NewRing(),

		mRoutes:         opts.Metrics.Counter("fed_routes_total"),
		mTokenRoutes:    opts.Metrics.Counter("fed_token_routes_total"),
		mRouteMisses:    opts.Metrics.Counter("fed_route_misses_total"),
		mMigrations:     opts.Metrics.Counter("fed_migrations_total"),
		mMigrationBytes: opts.Metrics.Counter("fed_migration_bytes_total"),
	}
}

// Owner returns the member currently owning homeID.
func (c *Cluster) Owner(homeID string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.Owner(homeID)
}

// node returns the named member (nil if absent).
func (c *Cluster) node(name string) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[name]
}

// AddNode joins a member to the cluster and rebalances: the ring change
// hands the new node its rendezvous slice of the keyspace, and every
// resident home in that slice migrates in from the node that held it.
// New connections for moved homes route to the new owner the moment the
// ring swaps — before their sessions finish shipping — which is safe: a
// resume that beats its migration record degrades to a fresh join.
func (c *Cluster) AddNode(name string, h *hub.Hub) error {
	if name == "" || h == nil {
		return fmt.Errorf("%w: empty node", ErrUnknownNode)
	}
	n := &Node{Name: name, Hub: h}
	c.mu.Lock()
	if _, dup := c.nodes[name]; dup {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrDuplicate, name)
	}
	c.nodes[name] = n
	c.ring = c.ring.With(name)
	ring := c.ring
	others := make([]*Node, 0, len(c.nodes)-1)
	for _, o := range c.nodes {
		if o != n {
			others = append(others, o)
		}
	}
	c.mu.Unlock()

	var firstErr error
	for _, from := range others {
		for _, homeID := range from.Hub.HomeIDs() {
			owner, _ := ring.Owner(homeID)
			if owner != name {
				continue
			}
			if err := c.migrate(homeID, from, n); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// Drain evacuates a member for deploy: the node leaves the ring first
// (new connections route to the survivors immediately), then every
// resident home — live sessions force-parked, parked sessions shipped —
// migrates to its new rendezvous owner, and the node is removed. The
// node's hub is NOT closed or connection-drained here: hub.Drain remains
// the process-shutdown path; fed drain is ownership evacuation, after
// which the caller may close the hub at leisure.
func (c *Cluster) Drain(name string) error {
	c.mu.Lock()
	n := c.nodes[name]
	if n == nil {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownNode, name)
	}
	c.ring = c.ring.Without(name)
	ring := c.ring
	c.mu.Unlock()

	var firstErr error
	for _, homeID := range n.Hub.HomeIDs() {
		owner, ok := ring.Owner(homeID)
		if !ok {
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: draining the last node strands %s", ErrNoNodes, homeID)
			}
			break
		}
		if err := c.migrate(homeID, n, c.node(owner)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	c.mu.Lock()
	delete(c.nodes, name)
	c.mu.Unlock()
	return firstErr
}

// MigrateHome moves one home's sessions from one member to another by
// name — the targeted form of what Drain and AddNode do in bulk. The
// ring is untouched, so this is for operator-directed moves of homes the
// ring already (or imminently) assigns to the target.
func (c *Cluster) MigrateHome(homeID, fromName, toName string) error {
	from, to := c.node(fromName), c.node(toName)
	if from == nil {
		return fmt.Errorf("%w: %s", ErrUnknownNode, fromName)
	}
	if to == nil {
		return fmt.Errorf("%w: %s", ErrUnknownNode, toName)
	}
	return c.migrate(homeID, from, to)
}

// migrate is the live-migration pipeline for one home:
//
//	force-park live sessions → export each lot entry → encode (the bytes
//	that would cross the wire) → decode → install on the target →
//	release the source's registry entry.
//
// The target home is admitted before the first record ships, so a
// redialing client can never observe a window where neither node hosts
// the home. The source host closes only if it is a different object
// from the target's (a shared-host factory — both hubs handing out one
// underlying stack — must not have its home torn down by a move).
func (c *Cluster) migrate(homeID string, from, to *Node) error {
	host, err := from.Hub.Get(homeID)
	if err != nil {
		return nil // not resident: nothing to move
	}
	t0 := time.Now()
	if err := host.DetachSessions(c.detach); err != nil {
		return fmt.Errorf("fed: migrate %s: %w", homeID, err)
	}
	dst, err := to.Hub.Admit(homeID)
	if err != nil {
		return fmt.Errorf("fed: migrate %s: admit on %s: %w", homeID, to.Name, err)
	}
	for _, tok := range host.ParkedTokens() {
		rec, ok := host.ExportParked(tok)
		if !ok {
			continue // claimed (a resume is mid-flight on the source) or expired
		}
		b, err := rec.Encode()
		if err != nil {
			return fmt.Errorf("fed: migrate %s: %w", homeID, err)
		}
		c.mMigrationBytes.Add(int64(len(b)))
		shipped, err := rfb.DecodeMigration(b)
		if err != nil {
			return fmt.Errorf("fed: migrate %s: %w", homeID, err)
		}
		if err := dst.ImportParked(shipped); err != nil {
			return fmt.Errorf("fed: migrate %s: import on %s: %w", homeID, to.Name, err)
		}
	}
	// Release the source's registry entry. A straggler connection pinning
	// the entry (racing the detach) blocks release; it unwinds promptly
	// because its transport was just closed, so retry briefly.
	released := false
	var src hub.Host
	for deadline := time.Now().Add(c.detach); ; {
		if src, released = from.Hub.Release(homeID); released {
			break
		}
		if _, err := from.Hub.Get(homeID); err != nil {
			break // someone else (eviction) removed it; nothing to close
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: %s on %s", ErrNotEvacuated, homeID, from.Name)
		}
		time.Sleep(time.Millisecond)
	}
	if released && src != dst {
		src.Close()
	}
	c.mMigrations.Inc()
	if tid := trace.Start(); tid != 0 {
		trace.Record(tid, trace.StageMigrate, t0.UnixNano(), time.Now().UnixNano())
	}
	return nil
}

// ServeConn reads the routing preamble from conn, picks the owning
// member, and hands the still-virgin protocol stream to that node's hub
// (which skips its own preamble read). TokenHome preambles scan members
// for the node whose detach lot holds the session. Blocks for the life
// of the connection.
func (c *Cluster) ServeConn(conn net.Conn) error {
	_ = conn.SetReadDeadline(time.Now().Add(hub.PreambleTimeout))
	p, err := hub.ParsePreamble(conn)
	if err != nil {
		conn.Close()
		return err
	}
	_ = conn.SetReadDeadline(time.Time{})

	var n *Node
	if p.HomeID == hub.TokenHome {
		n = c.findToken(p.Token)
		if n == nil {
			c.mRouteMisses.Inc()
			conn.Close()
			return fmt.Errorf("fed: no member holds session token")
		}
		c.mTokenRoutes.Inc()
	} else {
		c.mu.Lock()
		owner, ok := c.ring.Owner(p.HomeID)
		if ok {
			n = c.nodes[owner]
		}
		c.mu.Unlock()
		if n == nil {
			c.mRouteMisses.Inc()
			conn.Close()
			return fmt.Errorf("%w: cannot route %s", ErrNoNodes, p.HomeID)
		}
		c.mRoutes.Inc()
	}
	return n.Hub.ServePreamble(p, conn)
}

// findToken scans members for the node parking the session token —
// O(nodes × resident homes), roam-back path only.
func (c *Cluster) findToken(token string) *Node {
	c.mu.Lock()
	nodes := make([]*Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	c.mu.Unlock()
	for _, n := range nodes {
		if _, ok := n.Hub.FindToken(token); ok {
			return n
		}
	}
	return nil
}

// Serve accepts connections from ln until the listener closes.
func (c *Cluster) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		// goroutine-ok: Serve is the accept loop; routed conns are read on
		// this goroutine by the member home's Attach.
		go func() { _ = c.ServeConn(conn) }()
	}
}
