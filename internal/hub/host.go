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
//
// Exactly when the hub calls each method:
//
//   - Attach: once per routed connection (Hub.Route / Hub.ServeConn),
//     with the home's entry already pinned. The home handshakes and
//     serves conn on the calling goroutine and returns once the session
//     has retired (or the handshake failed and none started); the hub
//     unpins the entry when it does.
//   - Parked: on every eviction attempt (idle sweep, explicit Evict) —
//     a home with sessions waiting in its detach lot is not idle — and
//     by the federation layer sizing a migration.
//   - HasParked: on token routing (TokenHome preambles) while the hub
//     scans resident homes for the one parking a session token. True
//     means parked now: a home still serving the token's session on a
//     stale link ends that link and answers once the session has parked.
//   - ParkedTokens / ExportParked / ImportParked: only on the federation
//     migration path — enumerate the detach lot, extract one parked
//     session as a portable record, install a shipped record. A home
//     without a lot returns nil / (nil, false) / an error.
//   - DetachSessions: on federation drain — force-disconnect every live
//     session so it parks, then wait (bounded by timeout) until the
//     home has no live sessions.
//   - Close: once, on eviction or hub shutdown; after it returns the
//     hub drops its reference.
//
// uniint.HubSession is the production implementation; plain
// connection-serving homes wrap themselves with AdaptConnHandler.
type Host interface {
	// Attach handshakes and serves one proxy connection, returning after
	// the session has retired or the handshake failed.
	Attach(conn net.Conn) error
	// Parked returns the number of sessions waiting in the detach lot.
	Parked() int
	// HasParked reports whether the lot holds a live session for token.
	HasParked(token string) bool
	// ParkedTokens lists the lot's resume tokens (order unspecified).
	ParkedTokens() []string
	// ExportParked removes the parked session for token from the lot and
	// returns it as a portable migration record, or (nil, false) when the
	// token is absent, claimed, or expired.
	ExportParked(token string) (*rfb.MigrationRecord, bool)
	// ImportParked installs a migration record into the lot, making the
	// session resumable here.
	ImportParked(rec *rfb.MigrationRecord) error
	// DetachSessions disconnects every live session (each parks itself
	// under its resume token) and waits up to timeout for the home to
	// quiesce.
	DetachSessions(timeout time.Duration) error
	// Close tears the home's stack down.
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
