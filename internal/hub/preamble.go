package hub

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"time"
)

// The routing preamble is the one hub-specific wire addition: before the
// universal-interaction handshake begins, the connecting proxy sends a
// single line naming the home it wants,
//
//	UNIHUB/1 <home-id>\n
//	UNIHUB/1 <home-id> <token>\n
//
// and the hub routes the connection to that home's stack. The optional
// second field is the session resume token; a reconnecting device that
// no longer knows (or trusts) its home ID may send TokenHome ("~") as
// the home field, and the hub routes to whichever resident home holds
// the parked session for that token. Everything after the newline is the
// unmodified protocol, so the per-home servers stay unchanged (the
// paper's "we need not modify existing servers" claim survives
// multi-tenancy).
const (
	preambleMagic = "UNIHUB/1 "
	// MaxPreambleLen bounds the preamble line, magic and newline
	// included — a cheap defence against garbage connections.
	MaxPreambleLen = 256
	// TokenHome is the home-ID wildcard for token routing: "route me to
	// the home that parked my session".
	TokenHome = "~"
)

// ErrBadPreamble reports a malformed routing preamble.
var ErrBadPreamble = errors.New("hub: bad routing preamble")

// Preamble is the parsed UNIHUB/1 routing line: the home the connection
// wants, plus an optional session resume token. It is the single
// parse/format authority for the preamble wire format — the hub's
// ServeConn, the proxy-side dial helpers, and the federation front
// router all speak through it, so none of them can drift from
// docs/WIRE.md independently.
type Preamble struct {
	// HomeID names the home to route to; TokenHome ("~") routes by
	// Token alone.
	HomeID string
	// Token is the session resume token ("" when absent). Required when
	// HomeID is TokenHome.
	Token string
}

// validate reports whether p can be encoded as a legal routing line.
func (p Preamble) validate() error {
	if p.HomeID == "" || strings.ContainsAny(p.HomeID, " \n") {
		return fmt.Errorf("%w: invalid home id %q", ErrBadPreamble, p.HomeID)
	}
	if strings.ContainsAny(p.Token, " \n") {
		return fmt.Errorf("%w: invalid token %q", ErrBadPreamble, p.Token)
	}
	if p.HomeID == TokenHome && p.Token == "" {
		return fmt.Errorf("%w: token routing needs a token", ErrBadPreamble)
	}
	return nil
}

// String renders the routing line without the trailing newline,
// e.g. "UNIHUB/1 living-room" or "UNIHUB/1 ~ 6f1a…". It does not
// validate; use WriteTo to encode onto a connection.
func (p Preamble) String() string {
	if p.Token != "" {
		return preambleMagic + p.HomeID + " " + p.Token
	}
	return preambleMagic + p.HomeID
}

// WriteTo validates p and writes the newline-terminated routing line to
// w, implementing io.WriterTo.
func (p Preamble) WriteTo(w io.Writer) (int64, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	line := p.String() + "\n"
	if len(line) > MaxPreambleLen {
		return 0, fmt.Errorf("%w: preamble too long", ErrBadPreamble)
	}
	n, err := io.WriteString(w, line)
	return int64(n), err
}

// ParsePreamble consumes the routing line from r. It reads byte-at-a-time
// up to MaxPreambleLen so no protocol bytes beyond the newline are
// buffered away from the home's server. A router reading a connection uses
// ReadPreamble, which needs no read per byte.
func ParsePreamble(r io.Reader) (Preamble, error) {
	p, _, err := readPreamble(r, 1)
	return p, err
}

// preambleTimeout bounds how long ReadPreamble waits for the routing
// line, so a silent client cannot park a routing goroutine forever.
const preambleTimeout = 10 * time.Second

// ReadPreamble consumes the routing line from conn, reading up to
// MaxPreambleLen bytes at a time until the newline, and returns the
// connection the protocol continues on: conn itself, or, when the peer's
// writes carried bytes past the newline, conn behind a reader that yields
// those bytes first. It accepts and refuses exactly what ParsePreamble
// does. The read is bounded by preambleTimeout; on an error ReadPreamble
// closes conn.
func ReadPreamble(conn net.Conn) (Preamble, net.Conn, error) {
	_ = conn.SetReadDeadline(time.Now().Add(preambleTimeout))
	p, rest, err := readPreamble(conn, MaxPreambleLen)
	if err != nil {
		conn.Close()
		return Preamble{}, nil, err
	}
	_ = conn.SetReadDeadline(time.Time{})
	if len(rest) > 0 {
		return p, &replayConn{Conn: conn, rest: rest}, nil
	}
	return p, conn, nil
}

// readPreamble reads r, at most chunk bytes per read, until the newline
// and parses the line. It also returns what the last read carried past it.
func readPreamble(r io.Reader, chunk int) (Preamble, []byte, error) {
	var line [MaxPreambleLen]byte
	for n := 0; n < MaxPreambleLen; {
		m, err := r.Read(line[n:min(n+chunk, MaxPreambleLen)])
		if nl := bytes.IndexByte(line[n:n+m], '\n'); nl >= 0 {
			p, err := parseLine(line[:n+nl])
			return p, line[n+nl+1 : n+m], err
		}
		n += m
		if err != nil {
			return Preamble{}, nil, fmt.Errorf("%w: %v", ErrBadPreamble, err)
		}
	}
	return Preamble{}, nil, fmt.Errorf("%w: line too long", ErrBadPreamble)
}

// replayConn is a connection whose first reads yield rest, the protocol
// bytes ReadPreamble read past the routing line.
type replayConn struct {
	net.Conn
	rest []byte
}

func (c *replayConn) Read(p []byte) (int, error) {
	if len(c.rest) == 0 {
		return c.Conn.Read(p)
	}
	n := copy(p, c.rest)
	c.rest = c.rest[n:]
	return n, nil
}

// parseLine parses the routing line without its newline.
func parseLine(line []byte) (Preamble, error) {
	s, ok := strings.CutPrefix(string(line), preambleMagic)
	if !ok {
		return Preamble{}, fmt.Errorf("%w: missing magic", ErrBadPreamble)
	}
	p := Preamble{HomeID: s}
	if sp := strings.IndexByte(s, ' '); sp >= 0 {
		p.HomeID, p.Token = s[:sp], s[sp+1:]
		if p.Token == "" || strings.ContainsRune(p.Token, ' ') {
			return Preamble{}, fmt.Errorf("%w: malformed token field", ErrBadPreamble)
		}
	}
	if p.HomeID == "" {
		return Preamble{}, fmt.Errorf("%w: empty home id", ErrBadPreamble)
	}
	if p.HomeID == TokenHome && p.Token == "" {
		return Preamble{}, fmt.Errorf("%w: token routing needs a token", ErrBadPreamble)
	}
	return p, nil
}

// WritePreamble sends the routing line for homeID on conn.
func WritePreamble(conn io.Writer, homeID string) error {
	return WritePreambleToken(conn, homeID, "")
}

// WritePreambleToken sends the routing line carrying a session resume
// token. homeID may be TokenHome to route by token alone.
func WritePreambleToken(conn io.Writer, homeID, token string) error {
	_, err := Preamble{HomeID: homeID, Token: token}.WriteTo(conn)
	return err
}

// DialHome connects to a hub at addr, sends the routing preamble for
// homeID and returns the connection ready for the protocol handshake
// (pass it to core.Dial).
func DialHome(addr, homeID string) (net.Conn, error) {
	return DialHomeToken(addr, homeID, "")
}

// DialHomeToken is DialHome carrying a session resume token (homeID may
// be TokenHome to route by token alone). The connection is ready for the
// protocol handshake — pass it to rfb.DialResume with the link that holds
// the token to reclaim the parked session.
func DialHomeToken(addr, homeID, token string) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if err := WritePreambleToken(conn, homeID, token); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}
