package uniserver

import (
	"net"
	"sync"
)

// One session path, two ways bytes arrive. Attach sets a session up the
// same way for every transport; what differs is only who pushes client
// bytes into the parser. A readiness-driven conn is served with ZERO
// steady-state goroutines: the session is three pool tasks — read, write,
// dispatch — kicked by the transport's readiness callback and the damage
// pump, so a process hosting 100k idle edge sessions runs the same
// O(workers) goroutines as one hosting ten. Any other net.Conn has no way
// to announce readability, so the goroutine calling Attach stays parked in
// its blocking read loop for the session's life.

// edgeTransport is the readiness contract that selects the goroutine-free
// path (netsim.EventConn satisfies it): arrival is signalled through a
// callback and buffered bytes are drained without blocking.
type edgeTransport interface {
	net.Conn
	// OnReadable installs the arrival callback; it must also fire at close.
	OnReadable(func())
	// ReadAvailable copies buffered bytes without blocking: (0, nil) means
	// drained-but-open, (0, io.EOF) means closed and drained.
	ReadAvailable(p []byte) (int, error)
}

// edgeReadBudget bounds the bytes one read turn consumes before
// re-queueing itself, so a flooding client shares workers fairly with
// every other session instead of pinning one.
const edgeReadBudget = 64 << 10

// edgeBufPool holds the per-turn read scratch. Like turnScratch, it is
// checked out per turn, so read-buffer memory is O(concurrent read turns),
// not O(sessions).
var edgeBufPool = sync.Pool{
	New: func() any { b := make([]byte, 8<<10); return &b },
}

// readTurn is the edge session's read task: drain the transport's buffered
// bytes through the incremental parser. On transport close or a protocol
// error it runs the session teardown inline — the turn-based equivalent of
// the blocking read loop returning.
func (c *session) readTurn() {
	if c.dead {
		return
	}
	bp := edgeBufPool.Get().(*[]byte)
	buf := *bp
	total := 0
	for {
		n, err := c.edge.ReadAvailable(buf)
		if n > 0 {
			total += n
			if ferr := c.conn.Feed(buf[:n], c); ferr != nil {
				err = ferr
			}
		}
		if err != nil {
			edgeBufPool.Put(bp)
			c.dead = true
			c.teardown()
			return
		}
		if n == 0 {
			edgeBufPool.Put(bp)
			return // drained; the next readiness callback kicks us
		}
		if total >= edgeReadBudget {
			edgeBufPool.Put(bp)
			c.readTask.Kick() // running → rerun: back of the queue
			return
		}
	}
}
