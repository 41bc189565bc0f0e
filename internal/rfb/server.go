package rfb

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"uniint/internal/gfx"
)

// ServerHandler receives the universal input events and update demands
// arriving from the proxy. Implementations are provided by the UniInt
// server (internal/uniserver), which injects the events into the window
// system. Methods are called sequentially from the connection's read loop.
type ServerHandler interface {
	// KeyEvent delivers a universal keyboard event.
	KeyEvent(ev KeyEvent)
	// PointerEvent delivers a universal pointer event.
	PointerEvent(ev PointerEvent)
	// UpdateRequest delivers the client's demand for framebuffer contents.
	UpdateRequest(req UpdateRequest)
	// CutText delivers client-side clipboard text.
	CutText(text string)
}

// TokenExchange resolves the resume token a connecting client presented
// (empty for a fresh session) into the token the session will carry and
// whether the connection reclaims a parked server-side session. It runs
// during the handshake, between ClientInit and ServerInit, so the
// resolution is visible to the client in the same round trip.
type TokenExchange func(presented string) (issued string, resumed bool)

// MaxTokenLen bounds the resume token carried in the handshake (one
// length byte on the wire).
const MaxTokenLen = 255

// ServerConn is the server end of a universal interaction connection. It is
// created after a successful handshake and serves exactly one proxy.
//
// Writes (SendPrepared, SendEmptyUpdate) may be issued from any goroutine.
// Client messages arrive through Feed, pushed by Serve's blocking read
// loop, which invokes the handler; one caller at a time.
type ServerConn struct {
	conn net.Conn

	wmu sync.Mutex  // serializes writes and guards cw
	cw  countWriter // reusable byte-counting shim over the wire buffer

	smu       sync.Mutex // guards negotiated state
	pf        gfx.PixelFormat
	pfGen     uint8 // bumped on every SetPixelFormat; tags updates
	encodings []int32
	encMask   uint8 // capability bits derived from encodings

	width, height int
	name          string
	token         string // session token issued during the handshake
	resumed       bool   // the client reclaimed a parked session

	bytesSent     atomic.Int64
	bytesReceived atomic.Int64

	// Pending trace context (Feed's caller only): set by a trace-context
	// extension message, consumed by the next input event's handler via
	// TakeTraceContext.
	traceID uint64
	traceAt int64

	// feed retains a partial client message between Feed calls (Feed's
	// caller only). Empty in steady state — it grows only while a message
	// straddles two reads, and Feed drops an oversized backing array once
	// it drains.
	feed []byte
}

// handshakeReaderPool holds the small buffered readers handshakes borrow.
// The reader is returned as soon as the handshake completes (its buffered
// remainder moves into the connection's feed buffer); from then on the
// session reads through the one pooled buffer Serve holds.
var handshakeReaderPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, 4<<10) },
}

// NewEdgeServerConn performs the server side of the handshake over conn
// and returns a ready connection; it is the one ServerConn constructor.
// width/height/name describe the served desktop (the home appliance
// application's control panel surface). The token the client presented in
// ClientInit is resolved through ex, and the issued token plus the resumed
// verdict travel back in ServerInit; a nil ex issues no token and never
// resumes.
//
// It blocks on the handshake reads (brief when the client pipelined its
// half — see ClientHello). The returned connection holds no reader: client
// messages arrive through Feed, pushed by Serve. Bytes the client
// pipelined past the handshake are retained and parsed by the first Feed
// call.
func NewEdgeServerConn(conn net.Conn, width, height int, name string, ex TokenExchange) (*ServerConn, error) {
	s := &ServerConn{
		conn:   conn,
		pf:     gfx.PF32(),
		width:  width,
		height: height,
		name:   name,
	}
	br := handshakeReaderPool.Get().(*bufio.Reader)
	br.Reset(conn)
	bw := getWire(conn)
	err := s.handshake(br, bw, ex)
	putWire(bw)
	if n := br.Buffered(); err == nil && n > 0 {
		// The client pipelined protocol messages behind its handshake;
		// move them into the feed buffer so no byte is stranded in the
		// reader being returned to the pool.
		peek, _ := br.Peek(n)
		s.feed = append(s.feed, peek...)
	}
	br.Reset(nil)
	handshakeReaderPool.Put(br)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return s, nil
}

// wireBufSize is the write-side buffer: large enough that a typical
// FramebufferUpdate flushes in one transport write.
const wireBufSize = 64 << 10

// wireBufPool holds the write-side buffers. A connection checks one out
// per write operation (under wmu) instead of pinning one for its lifetime,
// so buffered write memory scales with concurrent sends — O(active
// writers) — rather than with connections: the dominant per-idle-session
// cost at fleet scale.
var wireBufPool = sync.Pool{
	New: func() any { return bufio.NewWriterSize(io.Discard, wireBufSize) },
}

// getWire checks a write buffer out of the pool, aimed at w.
func getWire(w io.Writer) *bufio.Writer {
	bw := wireBufPool.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw
}

// putWire returns a write buffer, dropping any unflushed bytes (a failed
// send leaves some; the connection is dead at that point) and its sticky
// error along with the transport reference.
func putWire(bw *bufio.Writer) {
	bw.Reset(io.Discard)
	wireBufPool.Put(bw)
}

func (s *ServerConn) handshake(br *bufio.Reader, bw *bufio.Writer, ex TokenExchange) error {
	// Version exchange.
	if err := writeAll(bw, []byte(ProtocolVersion)); err != nil {
		return fmt.Errorf("send version: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	ver := make([]byte, len(ProtocolVersion))
	if _, err := io.ReadFull(br, ver); err != nil {
		return fmt.Errorf("read client version: %w", err)
	}
	if string(ver) != ProtocolVersion {
		return ErrBadVersion
	}
	// Security: none.
	if err := writeU32(bw, secNone); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// ClientInit (shared flag, ignored) plus the resume-token extension:
	// a length-prefixed token the client carried over from a previous
	// connection (zero length for a fresh session).
	if _, err := readU8(br); err != nil {
		return fmt.Errorf("read client init: %w", err)
	}
	tlen, err := readU8(br)
	if err != nil {
		return fmt.Errorf("read resume token: %w", err)
	}
	var presented string
	if tlen > 0 {
		tok := make([]byte, tlen)
		if _, err := io.ReadFull(br, tok); err != nil {
			return fmt.Errorf("read resume token: %w", err)
		}
		presented = string(tok)
	}
	if ex != nil {
		s.token, s.resumed = ex(presented)
		if len(s.token) > MaxTokenLen {
			return fmt.Errorf("rfb: issued token of %d bytes: %w", len(s.token), ErrBadMessage)
		}
	}
	// ServerInit.
	if err := writeU16(bw, uint16(s.width)); err != nil {
		return err
	}
	if err := writeU16(bw, uint16(s.height)); err != nil {
		return err
	}
	if err := writePixelFormat(bw, s.pf); err != nil {
		return err
	}
	if err := writeU32(bw, uint32(len(s.name))); err != nil {
		return err
	}
	if err := writeAll(bw, []byte(s.name)); err != nil {
		return err
	}
	// ServerInit resume extension: the resumed verdict plus the issued
	// session token (zero length when no exchange is installed).
	var resumed uint8
	if s.resumed {
		resumed = 1
	}
	if err := writeU8(bw, resumed); err != nil {
		return err
	}
	if err := writeU8(bw, uint8(len(s.token))); err != nil {
		return err
	}
	if err := writeAll(bw, []byte(s.token)); err != nil {
		return err
	}
	return bw.Flush()
}

// TakeTraceContext returns and clears the trace context attached to the
// input event currently being dispatched: the sampled interaction's id
// and the client-side send timestamp (UnixNano). It is only meaningful
// from inside a ServerHandler callback (the Serve goroutine); (0, 0)
// means the event is untraced.
func (s *ServerConn) TakeTraceContext() (id uint64, sentAt int64) {
	id, sentAt = s.traceID, s.traceAt
	s.traceID, s.traceAt = 0, 0
	return id, sentAt
}

// Resumed reports whether the client reclaimed a parked session during
// the handshake.
func (s *ServerConn) Resumed() bool { return s.resumed }

// PixelFormat returns the pixel format currently requested by the client.
func (s *ServerConn) PixelFormat() gfx.PixelFormat {
	s.smu.Lock()
	defer s.smu.Unlock()
	return s.pf
}

// pixelFormatGen returns the format together with its generation number.
// Every FramebufferUpdate is tagged with the generation it was encoded
// under (in the header's padding byte), so the client can decode in-flight
// updates correctly across a format switch — the race a mid-session
// SetPixelFormat would otherwise create on a streaming connection.
func (s *ServerConn) pixelFormatGen() (gfx.PixelFormat, uint8) {
	s.smu.Lock()
	defer s.smu.Unlock()
	return s.pf, s.pfGen
}

// preferredLocked returns the first client-advertised encoding this server
// can produce, falling back to Raw. smu must be held.
func (s *ServerConn) preferredLocked() int32 {
	for _, e := range s.encodings {
		switch e {
		case EncRaw, EncRRE, EncHextile, EncZlib, EncZlibDict:
			return e
		}
	}
	return EncRaw
}

// BytesSent returns the total bytes written to the client so far.
func (s *ServerConn) BytesSent() int64 { return s.bytesSent.Load() }

// BytesReceived returns the total bytes read from the client so far.
func (s *ServerConn) BytesReceived() int64 { return s.bytesReceived.Load() }

// Close tears down the transport; Serve will return afterwards.
func (s *ServerConn) Close() error { return s.conn.Close() }

// readBufSize is the read scratch Serve hands Feed per read; a feed buffer
// that outgrew it is released on drain.
const readBufSize = 8 << 10

var readBufPool = sync.Pool{
	New: func() any { b := make([]byte, readBufSize); return &b },
}

// Serve is the read loop over Feed: it reads client bytes until the
// connection fails or closes, feeding each read to the incremental parser,
// which dispatches to h. It always returns a non-nil
// error; io.EOF and closed-connection errors mean an orderly shutdown.
func (s *ServerConn) Serve(h ServerHandler) error {
	bp := readBufPool.Get().(*[]byte)
	defer readBufPool.Put(bp)
	buf := *bp
	err := s.Feed(nil, h) // messages pipelined behind the handshake
	for err == nil {
		n, rerr := s.conn.Read(buf)
		if err = s.Feed(buf[:n], h); err == nil {
			err = rerr
		}
	}
	return err
}

// UpdateRect pairs a damage rectangle with the encoding to ship it with.
type UpdateRect struct {
	Rect     gfx.Rect
	Encoding int32
	// CopySrcX/CopySrcY are used only when Encoding == EncCopyRect.
	CopySrcX, CopySrcY int
}

// PreparedUpdate is an encoded-but-unsent FramebufferUpdate. Preparing
// (CPU-bound, reads the framebuffer) and sending (blocking I/O) are split
// so callers can encode while holding a framebuffer lock and transmit
// after releasing it.
//
// A PreparedUpdate is backed by pooled scratch: every rectangle body lives
// in one shared buffer, and SendPrepared (or Release) returns the storage
// to the pool. A PreparedUpdate must therefore be transmitted or released
// exactly once and never touched afterwards.
type PreparedUpdate struct {
	rects []UpdateRect
	spans [][2]int // [start,end) offsets of each body in buf
	buf   []byte
	pfGen uint8
	sc    *encodeScratch // owning scratch; nil once consumed
}

// Empty reports whether the update carries no rectangles.
func (p *PreparedUpdate) Empty() bool { return p == nil || len(p.rects) == 0 }

// Size returns the update's on-wire size in bytes (message header plus
// per-rectangle headers and encoded bodies) — the bandwidth-side metric
// of an update before it is transmitted.
func (p *PreparedUpdate) Size() int {
	if p.Empty() {
		return 0
	}
	return 4 + 12*len(p.rects) + len(p.buf)
}

// Release returns the update's pooled storage without transmitting it.
// Safe to call on a nil or already-consumed update.
func (p *PreparedUpdate) Release() {
	if p == nil || p.sc == nil {
		return
	}
	putScratch(p.sc)
}

// PrepareUpdateWire encodes the given rectangles against fb using the
// client's current pixel format, resolving EncAdaptive per rectangle from
// its content. fb may be nil when every rectangle is a CopyRect. The
// returned update is backed by pooled scratch; pass it to SendPrepared or
// Release it.
//
// A non-nil ws adds the wire-efficiency tier: it tracks what this
// session's client already holds, letting EncAdaptive rectangles resolve
// to CopyRect moves, tile references/installs and dictionary-zlib in
// addition to the content-adaptive encodings — always restricted to what
// the client advertised. Every encoded rectangle is committed into ws, so
// prepared updates must be sent to the client in preparation order; call
// ws.Reset after a failed send or prepare.
func (s *ServerConn) PrepareUpdateWire(fb *gfx.Framebuffer, rects []UpdateRect, ws *WireState) (*PreparedUpdate, error) {
	pf, gen := s.pixelFormatGen()
	s.smu.Lock()
	mask := s.encMask
	fallback := s.preferredLocked()
	s.smu.Unlock()

	sc := getScratch()
	prep := &sc.prep
	prep.sc = sc
	prep.pfGen = gen
	prep.rects = append(prep.rects[:0], rects...)
	prep.spans = prep.spans[:0]
	prep.buf = prep.buf[:0]
	for i := range prep.rects {
		ur := &prep.rects[i]
		start := len(prep.buf)
		switch {
		case ur.Encoding == EncCopyRect:
			var b [4]byte
			be.PutUint16(b[0:], uint16(ur.CopySrcX))
			be.PutUint16(b[2:], uint16(ur.CopySrcY))
			prep.buf = append(prep.buf, b[:]...)

		case ur.Encoding == EncAdaptive && ws != nil && fb != nil:
			buf, enc, err := ws.selectAndEncode(prep.buf, fb, ur, pf, mask, fallback, sc)
			if err != nil {
				prep.Release()
				ws.Reset()
				return nil, err
			}
			prep.buf = buf
			ur.Encoding = enc

		default:
			if ur.Encoding == EncAdaptive {
				ur.Encoding = chooseEncoding(fb, ur.Rect, mask, fallback, sc)
			}
			buf, err := encodeRect(prep.buf, ur.Encoding, fb, ur.Rect, pf, sc)
			if err != nil {
				prep.Release()
				if ws != nil {
					ws.Reset()
				}
				return nil, err
			}
			prep.buf = buf
		}
		prep.spans = append(prep.spans, [2]int{start, len(prep.buf)})
		countEncodedBytes(ur.Encoding, len(prep.buf)-start)
		if ws != nil {
			ws.commit(fb, ur)
		}
	}
	return prep, nil
}

// SendPrepared transmits a previously prepared update and releases its
// pooled storage (also on error); the update must not be used afterwards.
func (s *ServerConn) SendPrepared(prep *PreparedUpdate) error {
	defer prep.Release()
	if prep.Empty() {
		return nil
	}
	s.wmu.Lock()
	bw := getWire(s.conn)
	err := s.sendPreparedWire(bw, prep)
	putWire(bw)
	s.wmu.Unlock()
	return err
}

func (s *ServerConn) sendPreparedWire(bw *bufio.Writer, prep *PreparedUpdate) error {
	cw := &s.cw
	cw.w, cw.n = bw, 0
	if err := writeU8(cw, msgFramebufferUpdate); err != nil {
		return err
	}
	// The padding byte of RFB carries the pixel-format generation here.
	if err := writeU8(cw, prep.pfGen); err != nil {
		return err
	}
	if err := writeU16(cw, uint16(len(prep.rects))); err != nil {
		return err
	}
	for i, ur := range prep.rects {
		var hdr [12]byte
		be.PutUint16(hdr[0:], uint16(ur.Rect.X))
		be.PutUint16(hdr[2:], uint16(ur.Rect.Y))
		be.PutUint16(hdr[4:], uint16(ur.Rect.W))
		be.PutUint16(hdr[6:], uint16(ur.Rect.H))
		be.PutUint32(hdr[8:], uint32(ur.Encoding))
		if err := writeAll(cw, hdr[:]); err != nil {
			return err
		}
		span := prep.spans[i]
		if err := writeAll(cw, prep.buf[span[0]:span[1]]); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	s.bytesSent.Add(cw.n)
	return nil
}

// SendEmptyUpdate transmits a FramebufferUpdate with zero rectangles, so
// that a request whose region clips to nothing still receives exactly one
// reply (demand-driven clients pair requests with updates).
func (s *ServerConn) SendEmptyUpdate() error {
	_, gen := s.pixelFormatGen()
	s.wmu.Lock()
	defer s.wmu.Unlock()
	// The whole message is its header: type, generation, zero rectangles.
	if _, err := s.conn.Write([]byte{msgFramebufferUpdate, gen, 0, 0}); err != nil {
		return err
	}
	s.bytesSent.Add(4)
	return nil
}

// countWriter counts bytes flowing through it.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
