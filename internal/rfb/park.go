package rfb

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"uniint/internal/gfx"
)

// Frame compression. PackedShadow is the frame a WireState is synced to,
// serialized in PF32 wire layout and deflated — against the same preset
// dictionary the EncZlibDict wire encoding uses when the session's pixel
// format matches that native 32-bit layout. Nothing in the server or the
// hub packs a frame (a parked session keeps no pixels, and the migration
// record carries none); the type lives on only for the benchmark harness
// (cmd/uniload), which replays Pack and Unpack.

// PackedShadow is an immutable compressed snapshot of a frame.
type PackedShadow struct {
	w, h int
	comp []byte // a zlib stream, its header flagging a preset dictionary
}

// RawBytes returns the uncompressed size of the packed frame.
func (p *PackedShadow) RawBytes() int { return p.w * p.h * 4 }

// CompressedBytes returns the deflated size actually held.
func (p *PackedShadow) CompressedBytes() int { return len(p.comp) }

// Pack compresses the frame the model is synced to, and fails when it is
// synced to none. The WireState and its frame are only read — the caller
// guarantees no writer turn runs concurrently.
func (ws *WireState) Pack() (*PackedShadow, error) {
	fb := ws.synced
	if fb == nil {
		return nil, errors.New("rfb: pack: the wire model is synced to no frame")
	}
	// The preset dictionary is built in the session's wire pixel layout;
	// it matches the serialized frame only when that layout IS the
	// frame's native little-endian 32-bit form. Other formats (a 16bpp
	// PDA client) compress cold rather than against a mismatched dict.
	var dict []byte
	if !ws.pfSet || ws.pf == gfx.PF32() {
		dict = dictFor(gfx.PF32())
	}
	var buf bytes.Buffer
	zw, err := zlib.NewWriterLevelDict(&buf, zlib.DefaultCompression, dict)
	if err != nil {
		return nil, err
	}
	raw := make([]byte, len(fb.Pix())*4)
	for i, c := range fb.Pix() {
		// PF32 wire layout: little-endian, identity component mapping —
		// a byte-lossless serialization of the Color value.
		binary.LittleEndian.PutUint32(raw[4*i:], uint32(c))
	}
	if _, err := zw.Write(raw); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return &PackedShadow{w: fb.W(), h: fb.H(), comp: buf.Bytes()}, nil
}

// Unpack decodes the packed frame. Its argument is unused; it stays so
// cmd/uniload's replay, which passes nil, compiles unchanged.
func (p *PackedShadow) Unpack(_ *TileCache) (*gfx.Framebuffer, error) {
	// The dictionary is consulted only by a stream whose header asks for it.
	zr, err := zlib.NewReaderDict(bytes.NewReader(p.comp), dictFor(gfx.PF32()))
	if err != nil {
		return nil, fmt.Errorf("rfb: unpack frame: %w", err)
	}
	defer zr.Close()
	fb := gfx.NewFramebuffer(p.w, p.h)
	pix := fb.Pix()
	// One spare byte: a stream of exactly the frame's bytes ends short of
	// it (io.ErrUnexpectedEOF); a longer, shorter or corrupt one does not.
	raw := make([]byte, len(pix)*4+1)
	if n, err := io.ReadFull(zr, raw); n != len(pix)*4 || err != io.ErrUnexpectedEOF {
		return nil, fmt.Errorf("rfb: unpack frame: %d bytes for %d pixels (%v)", n, len(pix), err)
	}
	for i := range pix {
		pix[i] = gfx.Color(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return fb, nil
}
