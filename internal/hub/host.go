package hub

import (
	"errors"
	"net"
	"time"

	"uniint/internal/rfb"
)

// Host is the hub's one hosting contract: everything the hub (and the
// federation layer above it) ever asks of a resident home. With one
// interface there is nothing for the hub to type-assert, so a home cannot
// accidentally opt out of a capability by a method signature typo.
// uniint.HubSession is the production implementation; plain
// connection-serving homes wrap themselves with AdaptConnHandler.
type Host interface {
	// Attach handshakes and serves one proxy connection on the calling
	// goroutine, and returns once the session has retired (or the
	// handshake failed and none started). The hub calls it once per routed
	// connection (Route, ServeConn) with the home's entry pinned, and
	// unpins the entry when it returns.
	Attach(conn net.Conn) error
	// Parked returns the number of sessions waiting in the detach lot. Every
	// eviction attempt asks: a home with parked sessions is not idle.
	Parked() int
	// HasParked reports whether the lot holds a live session for token; the
	// hub asks resident homes in turn on token routing (TokenHome
	// preambles). A home still serving the token's session on a stale link
	// ends that link and answers once the session has parked.
	HasParked(token string) bool
	// ParkedTokens, ExportParked and ImportParked serve federation
	// migration only; a home without a lot returns nil, (nil, false) and
	// ErrNoLot. ParkedTokens lists the lot's resume tokens (order
	// unspecified).
	ParkedTokens() []string
	// ExportParked removes the parked session for token from the lot and
	// returns it as a portable migration record, or (nil, false) when the
	// token is absent, claimed, or expired.
	ExportParked(token string) (*rfb.MigrationRecord, bool)
	// ImportParked installs a migration record into the lot, making the
	// session resumable here.
	ImportParked(rec *rfb.MigrationRecord) error
	// DetachSessions, on federation drain, disconnects every live session
	// (each parks itself under its resume token) and waits up to timeout
	// for the home to quiesce.
	DetachSessions(timeout time.Duration) error
	// Close tears the home's stack down, once, on eviction or hub
	// shutdown, and returns only when every goroutine and timer callback
	// the home started has returned; the hub then drops its reference.
	Close()
}

// ErrNoLot reports a migration operation on a home without a detach lot.
var ErrNoLot = errors.New("hub: home has no detach lot")

// ConnHandler is the minimal home: it serves connections and shuts down.
// Wrap one with AdaptConnHandler to host it on a hub.
type ConnHandler interface {
	HandleConn(conn net.Conn) error
	Close()
}

// AdaptConnHandler lifts a plain connection-serving home to the full
// Host contract: every attach blocks in HandleConn, the detach lot is
// permanently empty, and migration is unsupported. Use it for simple or
// legacy homes that only implement HandleConn/Close.
func AdaptConnHandler(h ConnHandler) Host { return connHandlerHost{h} }

type connHandlerHost struct{ ConnHandler }

func (c connHandlerHost) Attach(conn net.Conn) error { return c.HandleConn(conn) }

func (connHandlerHost) Parked() int            { return 0 }
func (connHandlerHost) HasParked(string) bool  { return false }
func (connHandlerHost) ParkedTokens() []string { return nil }
func (connHandlerHost) ExportParked(string) (*rfb.MigrationRecord, bool) {
	return nil, false
}
func (connHandlerHost) ImportParked(*rfb.MigrationRecord) error { return ErrNoLot }
func (connHandlerHost) DetachSessions(time.Duration) error      { return nil }
