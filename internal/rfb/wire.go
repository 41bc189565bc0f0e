// Package rfb implements the universal interaction protocol: the wire
// protocol carried between the UniInt server and the UniInt proxy.
//
// The paper adopts the protocol of a stateless thin-client system (it names
// Citrix MetaFrame, Microsoft Terminal Server, Sun Ray and AT&T VNC) as the
// "universal interaction protocol": bitmap rectangles flow from server to
// viewer, keyboard and mouse events flow from viewer to server. This package
// reproduces the RFB 3.3 message vocabulary — versioned handshake,
// SetPixelFormat, SetEncodings, FramebufferUpdateRequest, FramebufferUpdate,
// KeyEvent, PointerEvent, Bell and CutText — together with the Raw,
// CopyRect, RRE, Hextile and Zlib rectangle encodings.
//
// One documented deviation: the real Zlib encoding shares a single zlib
// stream across every rectangle of a connection; this implementation uses an
// independent stream per rectangle (length-prefixed), which simplifies
// recovery and testing at a small compression-ratio cost.
// BenchmarkE2Encoding (bench_test.go) quantifies the encodings against
// each other.
package rfb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"uniint/internal/gfx"
)

// ProtocolVersion is exchanged during the handshake. The layout matches
// RFB's "RFB 003.003\n" 12-byte version string.
const ProtocolVersion = "UII 001.000\n"

// secNone is the one security type the server offers after the version
// exchange.
const secNone uint32 = 1

// Client-to-server message types.
const (
	msgSetPixelFormat     uint8 = 0
	msgSetEncodings       uint8 = 2
	msgFramebufferRequest uint8 = 3
	msgKeyEvent           uint8 = 4
	msgPointerEvent       uint8 = 5
	msgClientCutText      uint8 = 6
	// msgTraceContext is a protocol extension (type 7 is unused by RFB
	// 3.3's client vocabulary, mirroring the resume-token handshake
	// extension): it attaches an interaction trace id to the NEXT input
	// event on the stream. Payload: 8-byte trace id + 8-byte client send
	// time (UnixNano), so the server can span the wire hop. Servers that
	// never see it behave identically; proxies only emit it for sampled
	// interactions.
	msgTraceContext uint8 = 7
)

// Server-to-client message types.
const (
	msgFramebufferUpdate uint8 = 0
	msgBell              uint8 = 2
	msgServerCutText     uint8 = 3
)

// Rectangle encodings. Values match RFB where the encodings exist there.
const (
	EncRaw      int32 = 0
	EncCopyRect int32 = 1
	EncRRE      int32 = 2
	EncHextile  int32 = 5
	EncZlib     int32 = 6
)

// Wire-efficiency tier encodings (protocol extensions; values live above
// RFB's assigned range). A client opts in through SetEncodings like any
// other encoding; servers never emit them unadvertised.
const (
	// EncZlibDict is zlib with a preset dictionary: the body is a u32
	// length followed by an independent zlib stream whose FDICT dictionary
	// is the static per-pixel-format dictionary both ends derive from the
	// toolkit's glyph rows and theme colors (see dict.go). Repeated text
	// and widget chrome match the dictionary on the very first update,
	// before any history exists.
	EncZlibDict int32 = 100
	// EncTileInstall carries a content-addressed tile: u64 FNV-1a hash of
	// the tile pixels, an s32 inner encoding, and the inner body. The
	// client decodes the inner body AND retains the decoded pixels in its
	// tile window under the hash, so a later EncTileRef can replay them.
	EncTileInstall int32 = 101
	// EncTileRef replays a previously installed tile: the body is just the
	// u64 hash. Rect geometry must match the installed tile's geometry.
	EncTileRef int32 = 102
)

// EncodingName returns a human-readable name for an encoding constant.
func EncodingName(e int32) string {
	switch e {
	case EncRaw:
		return "raw"
	case EncCopyRect:
		return "copyrect"
	case EncRRE:
		return "rre"
	case EncHextile:
		return "hextile"
	case EncZlib:
		return "zlib"
	case EncZlibDict:
		return "zlibdict"
	case EncTileInstall:
		return "tileinstall"
	case EncTileRef:
		return "tileref"
	default:
		return fmt.Sprintf("enc(%d)", e)
	}
}

// Errors shared by both connection ends.
var (
	ErrBadVersion  = errors.New("rfb: unsupported protocol version")
	ErrBadSecurity = errors.New("rfb: unsupported security type")
	ErrBadMessage  = errors.New("rfb: malformed message")
)

// KeyEvent is a universal input event: a key press or release. Key values
// use the keysym constants from keys.go (printable ASCII maps to itself).
type KeyEvent struct {
	Down bool
	Key  uint32
}

// PointerEvent is a universal input event: pointer position plus a button
// bitmask (bit 0 = left, bit 1 = middle, bit 2 = right).
type PointerEvent struct {
	Buttons uint8
	X, Y    uint16
}

// Pressed reports whether the given button (0-based) is down.
func (p PointerEvent) Pressed(button uint) bool { return p.Buttons&(1<<button) != 0 }

// UpdateRequest is the client's demand for screen contents. When
// Incremental is true the server may send only damaged areas; otherwise it
// must resend the full region.
type UpdateRequest struct {
	Incremental bool
	Region      gfx.Rect
}

// writeAll writes the whole buffer or fails.
func writeAll(w io.Writer, b []byte) error {
	_, err := w.Write(b)
	return err
}

func writeU8(w io.Writer, v uint8) error { return writeAll(w, []byte{v}) }
func writeU16(w io.Writer, v uint16) error {
	var b [2]byte
	be.PutUint16(b[:], v)
	return writeAll(w, b[:])
}
func writeU32(w io.Writer, v uint32) error {
	var b [4]byte
	be.PutUint32(b[:], v)
	return writeAll(w, b[:])
}

func readU8(r io.Reader) (uint8, error) {
	var b [1]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

func readU16(r io.Reader) (uint16, error) {
	var b [2]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return be.Uint16(b[:]), nil
}

func readU32(r io.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return be.Uint32(b[:]), nil
}

func readU64(r io.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return be.Uint64(b[:]), nil
}

// be is the wire byte order for message headers (network order, as in RFB).
var be = binary.BigEndian

// pixelFormat wire layout is RFB's exact 16-byte SetPixelFormat payload.
func writePixelFormat(w io.Writer, pf gfx.PixelFormat) error {
	b := make([]byte, 16)
	b[0] = pf.BitsPerPixel
	b[1] = pf.Depth
	if pf.BigEndian {
		b[2] = 1
	}
	if pf.TrueColor {
		b[3] = 1
	}
	be.PutUint16(b[4:], pf.RedMax)
	be.PutUint16(b[6:], pf.GreenMax)
	be.PutUint16(b[8:], pf.BlueMax)
	b[10] = pf.RedShift
	b[11] = pf.GreenShift
	b[12] = pf.BlueShift
	// b[13:16] padding
	return writeAll(w, b)
}

func readPixelFormat(r io.Reader) (gfx.PixelFormat, error) {
	b := make([]byte, 16)
	if _, err := io.ReadFull(r, b); err != nil {
		return gfx.PixelFormat{}, err
	}
	return pixelFormatFrom(b), nil
}

// pixelFormatFrom decodes the 16-byte wire pixel format from b.
func pixelFormatFrom(b []byte) gfx.PixelFormat {
	return gfx.PixelFormat{
		BitsPerPixel: b[0],
		Depth:        b[1],
		BigEndian:    b[2] != 0,
		TrueColor:    b[3] != 0,
		RedMax:       be.Uint16(b[4:]),
		GreenMax:     be.Uint16(b[6:]),
		BlueMax:      be.Uint16(b[8:]),
		RedShift:     b[10],
		GreenShift:   b[11],
		BlueShift:    b[12],
	}
}

// putPixel serializes one pixel in pf into b, returning the byte count.
func putPixel(b []byte, pf gfx.PixelFormat, c gfx.Color) int {
	v := pf.Encode(c)
	switch pf.BitsPerPixel {
	case 8:
		b[0] = uint8(v)
		return 1
	case 16:
		if pf.BigEndian {
			be.PutUint16(b, uint16(v))
		} else {
			binary.LittleEndian.PutUint16(b, uint16(v))
		}
		return 2
	default: // 32
		if pf.BigEndian {
			be.PutUint32(b, v)
		} else {
			binary.LittleEndian.PutUint32(b, v)
		}
		return 4
	}
}

// getPixel deserializes one pixel in pf from b, returning the color and the
// byte count consumed.
func getPixel(b []byte, pf gfx.PixelFormat) (gfx.Color, int) {
	switch pf.BitsPerPixel {
	case 8:
		return pf.Decode(uint32(b[0])), 1
	case 16:
		var v uint16
		if pf.BigEndian {
			v = be.Uint16(b)
		} else {
			v = binary.LittleEndian.Uint16(b)
		}
		return pf.Decode(uint32(v)), 2
	default:
		var v uint32
		if pf.BigEndian {
			v = be.Uint32(b)
		} else {
			v = binary.LittleEndian.Uint32(b)
		}
		return pf.Decode(v), 4
	}
}
