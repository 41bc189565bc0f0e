// Package netsim provides transport simulation for testing the universal
// interaction stack under realistic home-network conditions: added
// latency and injected link failures over any net.Conn.
//
// The paper's devices talk over early-2000s home links (802.11b, HomeRF,
// 1394 bridges); the experiments indexed in bench_test.go use in-process
// pipes for determinism (E11 alone shapes its link with this package),
// while the failure-injection tests use it to prove the session-continuity
// machinery (core.Supervisor and the uniserver detach lot). The Injector
// turns the same shaping layer into a deterministic chaos source: seeded
// mid-stream link drops, drops during the handshake window, latency
// jitter, and byte truncation on kill.
package netsim

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Conn wraps a net.Conn with simulated link properties. Zero latency
// leaves the link unshaped.
//
// A Conn created by Wrap shapes BOTH directions: writes are delayed
// before reaching the inner transport and reads are delayed before being
// delivered, so a single wrap point simulates a symmetric link. Conns
// created by Pipe shape egress only — each pipe end delays its own
// writes, the peer end delays the opposite direction, and the link stays
// symmetric without shaping any byte twice.
type Conn struct {
	inner net.Conn

	latency   time.Duration
	shapeRead bool // delay delivery of reads (single-wrap symmetric mode)

	dropped atomic.Bool

	// Fault schedule (nil when the conn is not injector-managed).
	// budget counts down toward the scheduled mid-stream kill; jmu/jrng
	// produce deterministic per-op latency jitter.
	budget   atomic.Int64 // bytes remaining before the scheduled drop; <0 = no schedule
	truncate bool         // deliver a prefix of the killing write before dropping
	jmu      sync.Mutex
	jrng     *rand.Rand
	jitter   time.Duration
}

// Option configures a simulated link.
type Option func(*Conn)

// WithLatency adds a fixed one-way delay to every transfer.
func WithLatency(d time.Duration) Option {
	return func(c *Conn) { c.latency = d }
}

// Wrap shapes an existing connection symmetrically: the delay applies to
// both writes and reads, so wrapping one end of a transport is enough to
// simulate the whole link.
func Wrap(inner net.Conn, opts ...Option) *Conn {
	c := &Conn{inner: inner, shapeRead: true}
	c.budget.Store(-1)
	for _, o := range opts {
		o(c)
	}
	return c
}

// Pipe returns an in-process connection pair forming one shaped link.
// Each end shapes its egress only — the peer's wrap covers the other
// direction — so the configured latency is applied exactly once per
// transfer in each direction.
func Pipe(opts ...Option) (*Conn, *Conn) {
	a, b := net.Pipe()
	ca, cb := Wrap(a, opts...), Wrap(b, opts...)
	ca.shapeRead = false
	cb.shapeRead = false
	return ca, cb
}

var _ net.Conn = (*Conn)(nil)

// scheduled returns the next transfer's delay: the link's latency plus,
// under an injector schedule, a seeded jitter draw. It is kept apart from
// the sleep so a test can compare two schedules without reading a clock.
func (c *Conn) scheduled() time.Duration {
	d := c.latency
	if c.jitter > 0 {
		c.jmu.Lock()
		d += time.Duration(c.jrng.Int63n(int64(c.jitter)))
		c.jmu.Unlock()
	}
	return d
}

// delay sleeps out one transfer's scheduled delay.
func (c *Conn) delay() { time.Sleep(c.scheduled()) }

// spend consumes n bytes of the fault budget and reports how many of them
// may still be transferred before the scheduled drop fires (n when no
// drop is scheduled).
func (c *Conn) spend(n int) int {
	for {
		left := c.budget.Load()
		if left < 0 {
			return n
		}
		allowed := n
		if int64(allowed) > left {
			allowed = int(left)
		}
		if c.budget.CompareAndSwap(left, left-int64(allowed)) {
			return allowed
		}
	}
}

// Read implements net.Conn. Under symmetric shaping (Wrap) delivery is
// delayed by the link's latency; under an injector schedule the bytes
// count against the kill budget.
func (c *Conn) Read(p []byte) (int, error) {
	if c.dropped.Load() {
		return 0, net.ErrClosed
	}
	n, err := c.inner.Read(p)
	if n > 0 && c.shapeRead {
		c.delay()
	}
	if n > 0 {
		if allowed := c.spend(n); allowed < n {
			// The scheduled kill fires mid-read: deliver the prefix (the
			// peer's in-flight bytes truncate) and drop the link.
			c.DropLink()
			return allowed, nil // next Read reports the failure
		}
	}
	return n, err
}

// Write implements net.Conn, applying the link's delay before forwarding.
// Under an injector schedule, the write that exhausts the kill budget is
// truncated (a prefix reaches the peer when the schedule says so) and the
// link drops.
func (c *Conn) Write(p []byte) (int, error) {
	if c.dropped.Load() {
		return 0, net.ErrClosed
	}
	allowed := c.spend(len(p))
	if allowed < len(p) {
		n := 0
		if c.truncate && allowed > 0 {
			c.delay()
			n, _ = c.inner.Write(p[:allowed])
		}
		c.DropLink()
		return n, net.ErrClosed
	}
	c.delay()
	return c.inner.Write(p)
}

// DropLink simulates an abrupt link failure: both directions error from
// now on and the inner transport closes.
func (c *Conn) DropLink() {
	if c.dropped.Swap(true) {
		return
	}
	c.inner.Close()
}

// Dropped reports whether the link has failed.
func (c *Conn) Dropped() bool { return c.dropped.Load() }

// Close implements net.Conn.
func (c *Conn) Close() error { return c.inner.Close() }

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.inner.LocalAddr() }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.inner.RemoteAddr() }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error { return c.inner.SetDeadline(t) }

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.inner.SetReadDeadline(t) }

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }

// FaultConfig describes a deterministic fault schedule. Every field is
// optional; the zero value injects nothing.
type FaultConfig struct {
	// Seed makes the whole schedule reproducible: the same seed and the
	// same sequence of Wrap calls yield the same drops and jitter.
	Seed int64
	// DropAfterMin/Max bound the number of bytes a connection carries
	// (both directions combined) before its link is killed, drawn
	// per-connection from [Min, Max]. Zero Max disables mid-stream drops.
	DropAfterMin, DropAfterMax int64
	// HandshakeDropEvery kills every Nth connection within its first
	// HandshakeBytes bytes — the drop-during-handshake fault. Zero
	// disables it.
	HandshakeDropEvery int
	// HandshakeBytes is the size of the handshake window for
	// HandshakeDropEvery (default 64 bytes: inside the version/security
	// exchange).
	HandshakeBytes int64
	// Jitter adds a uniform [0, Jitter) delay to every shaped transfer,
	// drawn from the connection's seeded stream.
	Jitter time.Duration
	// Truncate delivers a prefix of the killing write to the peer instead
	// of dropping it whole — the torn-frame case a real link kill
	// produces.
	Truncate bool
}

// Injector hands out fault-scheduled connections. It is safe for
// concurrent use; determinism is per wrap order (concurrent wrappers
// should derive order from their own workload structure).
type Injector struct {
	cfg FaultConfig

	mu  sync.Mutex
	rng *rand.Rand
	n   int64 // connections wrapped

	drops atomic.Int64 // scheduled kills armed
}

// NewInjector creates a deterministic fault injector from cfg.
func NewInjector(cfg FaultConfig) *Injector {
	if cfg.HandshakeBytes <= 0 {
		cfg.HandshakeBytes = 64
	}
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Wrap shapes conn and arms its fault schedule: a deterministic kill
// budget (possibly inside the handshake window) and per-transfer jitter.
func (in *Injector) Wrap(conn net.Conn, opts ...Option) *Conn {
	c := Wrap(conn, opts...)
	in.mu.Lock()
	in.n++
	nth := in.n
	budget := int64(-1)
	if in.cfg.HandshakeDropEvery > 0 && nth%int64(in.cfg.HandshakeDropEvery) == 0 {
		budget = in.rng.Int63n(in.cfg.HandshakeBytes) + 1
	} else if in.cfg.DropAfterMax > 0 {
		span := in.cfg.DropAfterMax - in.cfg.DropAfterMin
		budget = in.cfg.DropAfterMin
		if span > 0 {
			budget += in.rng.Int63n(span + 1)
		}
	}
	jseed := in.rng.Int63()
	in.mu.Unlock()

	c.budget.Store(budget)
	c.truncate = in.cfg.Truncate
	if in.cfg.Jitter > 0 {
		c.jitter = in.cfg.Jitter
		c.jrng = rand.New(rand.NewSource(jseed))
	}
	if budget >= 0 {
		in.drops.Add(1)
	}
	return c
}

// Conns reports how many connections the injector has wrapped.
func (in *Injector) Conns() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.n
}

// ScheduledDrops reports how many wrapped connections were armed with a
// kill budget.
func (in *Injector) ScheduledDrops() int64 { return in.drops.Load() }
