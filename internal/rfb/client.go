package rfb

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"uniint/internal/gfx"
)

// ClientHandler receives server-to-client traffic after it has been applied
// to the client's shadow framebuffer. The UniInt proxy implements this to
// feed its output-conversion pipeline. Methods run on the Run goroutine.
type ClientHandler interface {
	// Updated is called after rects have been painted into the shadow
	// framebuffer. Use ClientConn.WithFramebuffer to read pixels. The
	// rects slice is reused for the next update; handlers that need the
	// rectangles past the call must copy them.
	Updated(rects []gfx.Rect)
	// Bell is called when the server rings the bell.
	Bell()
	// CutText delivers server clipboard text.
	CutText(text string)
}

// ClientConn is the proxy end of a universal interaction connection: it
// maintains a shadow of the server's framebuffer and forwards universal
// input events upstream.
type ClientConn struct {
	conn net.Conn
	br   *bufio.Reader

	wmu sync.Mutex
	bw  *bufio.Writer
	ws  [24]byte // write-path scratch (guarded by wmu): a stack array
	// passed through io.Writer escapes to the heap per call, which on the
	// event hot path would mean one allocation per input event.

	rs [16]byte // read-path scratch (Run goroutine only), same rationale

	fmu     sync.Mutex // guards fb, the format table and the decode scratch
	fb      *gfx.Framebuffer
	pfGen   uint8                     // generation of the last requested format
	pfByGen map[uint8]gfx.PixelFormat // decode formats by generation tag
	dsc     decodeScratch             // reusable decode buffers
	rects   []gfx.Rect                // reusable per-update rect list
	cr      countReader               // reusable byte-counting shim over br

	name      string
	presented string // resume token offered in ClientInit
	token     string // session token issued by the server
	resumed   bool   // the server accepted the presented token

	bytesSent     atomic.Int64
	bytesReceived atomic.Int64
	updatesRecv   atomic.Int64
}

// Dial performs the client side of the handshake over conn. On return the
// shadow framebuffer is allocated with the server's geometry.
func Dial(conn net.Conn) (*ClientConn, error) {
	return DialResume(conn, "")
}

// DialResume is Dial presenting a resume token from a previous session:
// a server with a parked session for the token reclaims it instead of
// starting cold. Resumed reports the verdict; Token carries the session
// token to present on the next reconnect. An empty token is a plain Dial.
func DialResume(conn net.Conn, token string) (*ClientConn, error) {
	if len(token) > MaxTokenLen {
		return nil, fmt.Errorf("rfb: resume token of %d bytes: %w", len(token), ErrBadMessage)
	}
	c := &ClientConn{
		conn:      conn,
		br:        bufio.NewReaderSize(conn, 64<<10),
		bw:        bufio.NewWriterSize(conn, 16<<10),
		pfByGen:   map[uint8]gfx.PixelFormat{0: gfx.PF32()},
		presented: token,
	}
	if err := c.handshake(); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

func (c *ClientConn) handshake() error {
	ver := make([]byte, len(ProtocolVersion))
	if _, err := io.ReadFull(c.br, ver); err != nil {
		return fmt.Errorf("read server version: %w", err)
	}
	if string(ver) != ProtocolVersion {
		return ErrBadVersion
	}
	if err := writeAll(c.bw, []byte(ProtocolVersion)); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	sec, err := readU32(c.br)
	if err != nil {
		return fmt.Errorf("read security: %w", err)
	}
	if sec != secNone {
		return ErrBadSecurity
	}
	// ClientInit: request shared session, then the resume-token
	// extension (length-prefixed; zero length for a fresh session).
	if err := writeU8(c.bw, 1); err != nil {
		return err
	}
	if err := writeU8(c.bw, uint8(len(c.presented))); err != nil {
		return err
	}
	if err := writeAll(c.bw, []byte(c.presented)); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	w, err := readU16(c.br)
	if err != nil {
		return err
	}
	h, err := readU16(c.br)
	if err != nil {
		return err
	}
	pf, err := readPixelFormat(c.br)
	if err != nil {
		return err
	}
	nameLen, err := readU32(c.br)
	if err != nil {
		return err
	}
	if nameLen > 1<<16 {
		return fmt.Errorf("rfb: desktop name of %d bytes: %w", nameLen, ErrBadMessage)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(c.br, name); err != nil {
		return err
	}
	// ServerInit resume extension: the resumed verdict and the issued
	// session token.
	res, err := readU8(c.br)
	if err != nil {
		return fmt.Errorf("read resume verdict: %w", err)
	}
	tlen, err := readU8(c.br)
	if err != nil {
		return fmt.Errorf("read session token: %w", err)
	}
	var token []byte
	if tlen > 0 {
		token = make([]byte, tlen)
		if _, err := io.ReadFull(c.br, token); err != nil {
			return fmt.Errorf("read session token: %w", err)
		}
	}
	c.fb = gfx.NewFramebuffer(int(w), int(h))
	c.pfByGen[0] = pf
	c.name = string(name)
	c.resumed = res != 0
	c.token = string(token)
	return nil
}

// Name returns the desktop name announced by the server.
func (c *ClientConn) Name() string { return c.name }

// Token returns the session token the server issued during the
// handshake; present it via DialResume on the next reconnect to reclaim
// the parked session ("" when the server issues no tokens).
func (c *ClientConn) Token() string { return c.token }

// Resumed reports whether the server reclaimed a parked session for the
// presented token. When true, the server retains the pre-disconnect
// session state and will ship only damage accumulated while detached —
// the client should keep its shadow framebuffer (AdoptShadow) instead of
// demanding a full repaint.
func (c *ClientConn) Resumed() bool { return c.resumed }

// AdoptShadow takes over the previous connection's shadow framebuffer,
// re-establishing the pre-disconnect pixels a resumed session builds its
// incremental resync on. It reports whether the adoption happened
// (geometries must match). prev must no longer be running: the two
// connections swap framebuffers, so prev is left with this one's blank.
func (c *ClientConn) AdoptShadow(prev *ClientConn) bool {
	if prev == nil || prev == c {
		return false
	}
	c.fmu.Lock()
	defer c.fmu.Unlock()
	prev.fmu.Lock()
	defer prev.fmu.Unlock()
	if prev.fb.W() != c.fb.W() || prev.fb.H() != c.fb.H() {
		return false
	}
	c.fb, prev.fb = prev.fb, c.fb
	return true
}

// Size returns the server framebuffer geometry.
func (c *ClientConn) Size() (w, h int) {
	c.fmu.Lock()
	defer c.fmu.Unlock()
	return c.fb.W(), c.fb.H()
}

// WithFramebuffer runs fn with the shadow framebuffer locked. fn must not
// retain the pointer or call back into the connection.
func (c *ClientConn) WithFramebuffer(fn func(fb *gfx.Framebuffer)) {
	c.fmu.Lock()
	defer c.fmu.Unlock()
	fn(c.fb)
}

// Snapshot returns a copy of the region r of the shadow framebuffer.
func (c *ClientConn) Snapshot(r gfx.Rect) *gfx.Framebuffer {
	c.fmu.Lock()
	defer c.fmu.Unlock()
	return c.fb.SubImage(r)
}

// BytesSent returns the total bytes written to the server.
func (c *ClientConn) BytesSent() int64 { return c.bytesSent.Load() }

// BytesReceived returns the total bytes read from the server.
func (c *ClientConn) BytesReceived() int64 { return c.bytesReceived.Load() }

// UpdatesReceived returns the number of FramebufferUpdate messages applied.
func (c *ClientConn) UpdatesReceived() int64 { return c.updatesRecv.Load() }

// Close tears down the transport; Run will return afterwards.
func (c *ClientConn) Close() error { return c.conn.Close() }

// SetPixelFormat asks the server to ship subsequent updates in pf. The
// switch is safe mid-stream: every FramebufferUpdate carries the
// generation of the format it was encoded under, so in-flight updates
// still decode with the format they were produced with.
func (c *ClientConn) SetPixelFormat(pf gfx.PixelFormat) error {
	if !pf.Valid() {
		return fmt.Errorf("rfb: invalid pixel format: %w", ErrBadMessage)
	}
	// Register the next generation before the message can possibly be
	// answered.
	c.fmu.Lock()
	c.pfGen++
	c.pfByGen[c.pfGen] = pf
	// Prune stale generations; only a handful can be in flight at once.
	// Generation 0 (the ServerInit format) is kept as the fallback.
	for g := range c.pfByGen {
		if g != 0 && c.pfGen-g > 16 {
			delete(c.pfByGen, g)
		}
	}
	c.fmu.Unlock()

	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := writeU8(c.bw, msgSetPixelFormat); err != nil {
		return err
	}
	if err := writeAll(c.bw, []byte{0, 0, 0}); err != nil {
		return err
	}
	if err := writePixelFormat(c.bw, pf); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	c.bytesSent.Add(20)
	return nil
}

// formatFor resolves the decode format for an update's generation tag,
// falling back to the most recently requested format. Caller holds fmu.
func (c *ClientConn) formatFor(gen uint8) gfx.PixelFormat {
	if pf, ok := c.pfByGen[gen]; ok {
		return pf
	}
	if pf, ok := c.pfByGen[c.pfGen]; ok {
		return pf
	}
	return gfx.PF32()
}

// SetEncodings advertises the encodings the proxy can decode, in
// preference order.
func (c *ClientConn) SetEncodings(encs []int32) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := writeU8(c.bw, msgSetEncodings); err != nil {
		return err
	}
	if err := writeU8(c.bw, 0); err != nil {
		return err
	}
	if err := writeU16(c.bw, uint16(len(encs))); err != nil {
		return err
	}
	for _, e := range encs {
		if err := writeU32(c.bw, uint32(e)); err != nil {
			return err
		}
	}
	c.bytesSent.Add(int64(4 + 4*len(encs)))
	return c.bw.Flush()
}

// RequestUpdate demands framebuffer contents for region r. With
// incremental true, the server may send only what changed.
func (c *ClientConn) RequestUpdate(incremental bool, r gfx.Rect) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	b := c.ws[:10]
	b[0] = msgFramebufferRequest
	if incremental {
		b[1] = 1
	} else {
		b[1] = 0
	}
	be.PutUint16(b[2:], uint16(r.X))
	be.PutUint16(b[4:], uint16(r.Y))
	be.PutUint16(b[6:], uint16(r.W))
	be.PutUint16(b[8:], uint16(r.H))
	if err := writeAll(c.bw, b); err != nil {
		return err
	}
	c.bytesSent.Add(10)
	return c.bw.Flush()
}

// SendKey forwards a universal keyboard event to the server.
func (c *ClientConn) SendKey(ev KeyEvent) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.putKeyLocked(ev); err != nil {
		return err
	}
	c.bytesSent.Add(8)
	return c.bw.Flush()
}

// InputEvent is one universal input event in batch form: exactly one of
// the pointer/key halves is meaningful, selected by IsPointer. It exists
// so a burst of translated events can cross the write path together (see
// WriteEvents). A nonzero TraceID marks the event as a sampled
// interaction: WriteEvents prefixes it with a trace-context extension
// message carrying the id and the send timestamp.
type InputEvent struct {
	IsPointer bool
	Pointer   PointerEvent
	Key       KeyEvent
	TraceID   uint64
}

// WriteEvents appends every event to the send buffer and flushes once, so
// a burst of translated device events costs one transport write instead
// of one per event. Events are transmitted in slice order.
func (c *ClientConn) WriteEvents(evs []InputEvent) error {
	if len(evs) == 0 {
		return nil
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	var n int64
	// Count what was actually buffered even on a mid-batch error, so the
	// byte accounting matches the single-event senders (which count
	// before flushing).
	defer func() { c.bytesSent.Add(n) }()
	for i := range evs {
		ev := &evs[i]
		if ev.TraceID != 0 {
			if err := c.putTraceLocked(ev.TraceID); err != nil {
				return err
			}
			n += 17
		}
		if ev.IsPointer {
			if err := c.putPointerLocked(ev.Pointer); err != nil {
				return err
			}
			n += 6
		} else {
			if err := c.putKeyLocked(ev.Key); err != nil {
				return err
			}
			n += 8
		}
	}
	return c.bw.Flush()
}

// putTraceLocked buffers a trace-context extension message without
// flushing (wmu held): the next input event on the stream belongs to the
// sampled interaction id. The send timestamp is taken here, at the last
// moment before the bytes enter the transport buffer.
func (c *ClientConn) putTraceLocked(id uint64) error {
	b := c.ws[:17]
	b[0] = msgTraceContext
	be.PutUint64(b[1:], id)
	be.PutUint64(b[9:], uint64(time.Now().UnixNano()))
	return writeAll(c.bw, b)
}

// putKeyLocked buffers a key event without flushing (wmu held).
func (c *ClientConn) putKeyLocked(ev KeyEvent) error {
	b := c.ws[:8]
	b[0] = msgKeyEvent
	if ev.Down {
		b[1] = 1
	} else {
		b[1] = 0
	}
	b[2], b[3] = 0, 0
	be.PutUint32(b[4:], ev.Key)
	return writeAll(c.bw, b)
}

// putPointerLocked buffers a pointer event without flushing (wmu held).
func (c *ClientConn) putPointerLocked(ev PointerEvent) error {
	b := c.ws[:6]
	b[0] = msgPointerEvent
	b[1] = ev.Buttons
	be.PutUint16(b[2:], ev.X)
	be.PutUint16(b[4:], ev.Y)
	return writeAll(c.bw, b)
}

// SendPointer forwards a universal pointer event to the server.
func (c *ClientConn) SendPointer(ev PointerEvent) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.putPointerLocked(ev); err != nil {
		return err
	}
	c.bytesSent.Add(6)
	return c.bw.Flush()
}

// SendCutText ships clipboard text to the server.
func (c *ClientConn) SendCutText(text string) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := writeU8(c.bw, msgClientCutText); err != nil {
		return err
	}
	if err := writeAll(c.bw, []byte{0, 0, 0}); err != nil {
		return err
	}
	if err := writeU32(c.bw, uint32(len(text))); err != nil {
		return err
	}
	if err := writeAll(c.bw, []byte(text)); err != nil {
		return err
	}
	c.bytesSent.Add(int64(8 + len(text)))
	return c.bw.Flush()
}

// Run reads server messages until the connection fails, applying updates
// to the shadow framebuffer and notifying h. It always returns a non-nil
// error; io.EOF means orderly shutdown.
func (c *ClientConn) Run(h ClientHandler) error {
	for {
		t, err := c.br.ReadByte() // concrete call: no per-message escape
		if err != nil {
			return err
		}
		c.bytesReceived.Add(1)
		switch t {
		case msgFramebufferUpdate:
			if _, err := io.ReadFull(c.br, c.rs[:3]); err != nil {
				return err
			}
			gen := c.rs[0] // format generation in the pad byte
			n := be.Uint16(c.rs[1:3])
			c.bytesReceived.Add(3)
			c.fmu.Lock()
			rects := c.rects[:0]
			pf := c.formatFor(gen)
			for i := 0; i < int(n); i++ {
				hdr := c.rs[:12]
				if _, err := io.ReadFull(c.br, hdr); err != nil {
					c.fmu.Unlock()
					return err
				}
				r := gfx.R(
					int(be.Uint16(hdr[0:])), int(be.Uint16(hdr[2:])),
					int(be.Uint16(hdr[4:])), int(be.Uint16(hdr[6:])),
				)
				enc := int32(be.Uint32(hdr[8:]))
				c.bytesReceived.Add(12)
				if enc == EncCopyRect {
					src := c.rs[12:16]
					if _, err := io.ReadFull(c.br, src); err != nil {
						c.fmu.Unlock()
						return err
					}
					c.bytesReceived.Add(4)
					c.fb.CopyRect(r.X, r.Y, gfx.R(
						int(be.Uint16(src[0:])), int(be.Uint16(src[2:])), r.W, r.H))
				} else {
					c.cr.r, c.cr.n = c.br, 0
					if err := decodeRect(&c.cr, enc, c.fb, r, pf, &c.dsc); err != nil {
						c.fmu.Unlock()
						return err
					}
					c.bytesReceived.Add(c.cr.n)
				}
				rects = append(rects, r)
			}
			c.rects = rects
			c.fmu.Unlock()
			c.updatesRecv.Add(1)
			if h != nil {
				// rects is reused for the next update; the ClientHandler
				// contract requires handlers to copy it to retain it.
				h.Updated(rects)
			}

		case msgBell:
			if h != nil {
				h.Bell()
			}

		case msgServerCutText:
			if _, err := io.ReadFull(c.br, c.rs[:3]); err != nil {
				return err
			}
			n, err := readU32(c.br)
			if err != nil {
				return err
			}
			if n > 1<<20 {
				return fmt.Errorf("rfb: cut text of %d bytes: %w", n, ErrBadMessage)
			}
			txt := make([]byte, n)
			if _, err := io.ReadFull(c.br, txt); err != nil {
				return err
			}
			c.bytesReceived.Add(int64(7 + n))
			if h != nil {
				h.CutText(string(txt))
			}

		default:
			return fmt.Errorf("rfb: unknown server message %d: %w", t, ErrBadMessage)
		}
	}
}

// countReader counts bytes flowing through it.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
