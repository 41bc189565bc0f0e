package rfb

import (
	"fmt"

	"uniint/internal/gfx"
)

// Feed is the one client-message decoder: it parses the client messages in
// data — prepended with any partial message retained from earlier feeds —
// and dispatches each complete one to h. A trailing partial message is
// retained for the next call. Bytes are pushed in by Serve's blocking read
// loop (tests and the fuzz target push arbitrary splits directly). Feed is
// not safe for concurrent use with itself or Serve. A non-nil error means
// the stream is unrecoverable and the connection should be torn down.
func (s *ServerConn) Feed(data []byte, h ServerHandler) error {
	buf := data
	if len(s.feed) > 0 {
		s.feed = append(s.feed, data...)
		buf = s.feed
	}
	off := 0
	for off < len(buf) {
		n, err := s.parseClientMessage(buf[off:], h)
		if err != nil {
			s.feed = s.feed[:0]
			return err
		}
		if n == 0 {
			break // incomplete message: wait for more bytes
		}
		off += n
	}
	rest := buf[off:]
	switch {
	case len(rest) == 0 && cap(s.feed) > readBufSize:
		// A straddling message (a 1 MB cut text, say) grew the buffer far
		// past what a read delivers; keeping that capacity would pin it
		// per idle session until disconnect.
		s.feed = nil
	case len(s.feed) > 0:
		if off > 0 { // nothing parsed: the retained bytes are already in place
			s.feed = s.feed[:copy(s.feed, rest)]
		}
	case len(rest) > 0:
		s.feed = append(s.feed, rest...)
	}
	return nil
}

// parseClientMessage parses one client message from the front of b,
// returning the bytes consumed (0: b holds only a partial message).
func (s *ServerConn) parseClientMessage(b []byte, h ServerHandler) (int, error) {
	switch b[0] {
	case msgSetPixelFormat: // type + 3 padding + 16 pixel format
		if len(b) < 20 {
			return 0, nil
		}
		pf := pixelFormatFrom(b[4:20])
		if !pf.Valid() {
			return 0, fmt.Errorf("rfb: client sent invalid pixel format: %w", ErrBadMessage)
		}
		s.bytesReceived.Add(20)
		s.smu.Lock()
		s.pf = pf
		s.pfGen++
		s.smu.Unlock()
		return 20, nil

	case msgSetEncodings: // type + padding + u16 count + count*u32
		if len(b) < 4 {
			return 0, nil
		}
		n := int(be.Uint16(b[2:]))
		total := 4 + 4*n
		if len(b) < total {
			return 0, nil
		}
		encs := make([]int32, n)
		for i := range encs {
			encs[i] = int32(be.Uint32(b[4+4*i:]))
		}
		s.bytesReceived.Add(int64(total))
		s.smu.Lock()
		s.encodings = encs
		s.encMask = encodingMask(encs)
		s.smu.Unlock()
		return total, nil

	case msgFramebufferRequest: // type + incremental + 4×u16 geometry
		if len(b) < 10 {
			return 0, nil
		}
		s.bytesReceived.Add(10)
		h.UpdateRequest(UpdateRequest{
			Incremental: b[1] != 0,
			Region: gfx.R(
				int(be.Uint16(b[2:])), int(be.Uint16(b[4:])),
				int(be.Uint16(b[6:])), int(be.Uint16(b[8:])),
			),
		})
		return 10, nil

	case msgKeyEvent: // type + down + 2 padding + u32 keysym
		if len(b) < 8 {
			return 0, nil
		}
		s.bytesReceived.Add(8)
		h.KeyEvent(KeyEvent{Down: b[1] != 0, Key: be.Uint32(b[4:])})
		return 8, nil

	case msgPointerEvent: // type + button mask + 2×u16 position
		if len(b) < 6 {
			return 0, nil
		}
		s.bytesReceived.Add(6)
		h.PointerEvent(PointerEvent{Buttons: b[1], X: be.Uint16(b[2:]), Y: be.Uint16(b[4:])})
		return 6, nil

	case msgTraceContext: // type + u64 trace id + u64 client send time
		if len(b) < 17 {
			return 0, nil
		}
		s.bytesReceived.Add(17)
		s.traceID = be.Uint64(b[1:])
		s.traceAt = int64(be.Uint64(b[9:]))
		return 17, nil

	case msgClientCutText: // type + 3 padding + u32 length + text
		if len(b) < 8 {
			return 0, nil
		}
		n := be.Uint32(b[4:])
		if n > 1<<20 {
			return 0, fmt.Errorf("rfb: cut text of %d bytes: %w", n, ErrBadMessage)
		}
		total := 8 + int(n)
		if len(b) < total {
			return 0, nil
		}
		s.bytesReceived.Add(int64(total))
		h.CutText(string(b[8:total]))
		return total, nil

	default:
		return 0, fmt.Errorf("rfb: unknown client message %d: %w", b[0], ErrBadMessage)
	}
}

// ClientHello returns the client's entire half of the handshake as one
// pipelined byte string: protocol version, ClientInit (shared) and the
// resume-token extension (empty token: fresh session). The server's
// handshake reads never block once these bytes are buffered, which is
// what lets a scripted client complete a handshake with no goroutine of
// its own — write the hello, read ServerInit at leisure.
func ClientHello(token string) []byte {
	if len(token) > MaxTokenLen {
		token = token[:MaxTokenLen]
	}
	b := make([]byte, 0, len(ProtocolVersion)+2+len(token))
	b = append(b, ProtocolVersion...)
	b = append(b, 1) // ClientInit: shared
	b = append(b, uint8(len(token)))
	b = append(b, token...)
	return b
}
