package rfb

import (
	"bytes"
	"compress/zlib"
	"fmt"
	"io"

	"uniint/internal/gfx"
)

// Shadow compression. PackedShadow is a WireState shadow framebuffer
// serialized in PF32 wire layout and deflated — against the same preset
// dictionary the EncZlibDict wire encoding uses when the session's pixel
// format matches the shadow's native 32-bit layout. It is the type of the
// migration record's optional shadow stream, which the detach lot neither
// writes nor reads: a parked session keeps no pixels, because every resume
// distrusts its shadow and the revalidating full repaint overwrites it
// before anything reads it. The benchmark harness (cmd/uniload) still
// replays Pack and Unpack.

// PackedShadow is an immutable compressed snapshot of a WireState.
type PackedShadow struct {
	w, h  int
	pf    gfx.PixelFormat
	pfSet bool
	dict  bool // compressed against the PF32 preset dictionary
	comp  []byte
	raw   int // serialized size before compression (w*h*4)
}

// RawBytes returns the uncompressed size of the packed shadow.
func (p *PackedShadow) RawBytes() int { return p.raw }

// CompressedBytes returns the deflated size actually held.
func (p *PackedShadow) CompressedBytes() int { return len(p.comp) }

// packScratch bounds the serialization chunk fed to the deflater per
// write, keeping Pack's transient footprint independent of geometry.
const packScratch = 32 << 10

// Pack compresses the shadow. The WireState is only read — the caller
// guarantees no writer turn runs concurrently.
func (ws *WireState) Pack() (*PackedShadow, error) {
	shadow := ws.ensureShadow()
	p := &PackedShadow{
		w: ws.w, h: ws.h,
		pf: ws.pf, pfSet: ws.pfSet,
		raw: len(shadow.Pix()) * 4, // Colors are 4 bytes each
	}
	// The preset dictionary is built in the session's wire pixel layout;
	// it matches the serialized shadow only when that layout IS the
	// shadow's native little-endian 32-bit form. Other formats (a 16bpp
	// PDA client) compress cold rather than against a mismatched dict.
	pf32 := gfx.PF32()
	p.dict = !ws.pfSet || ws.pf == pf32
	var buf bytes.Buffer
	var zw *zlib.Writer
	var err error
	if p.dict {
		zw, err = zlib.NewWriterLevelDict(&buf, zlib.DefaultCompression, dictFor(pf32))
	} else {
		zw, err = zlib.NewWriterLevel(&buf, zlib.DefaultCompression)
	}
	if err != nil {
		return nil, err
	}
	var scratch [packScratch]byte
	n := 0
	for _, c := range shadow.Pix() {
		// PF32 wire layout: little-endian, identity component mapping —
		// a byte-lossless serialization of the Color value.
		scratch[n] = byte(c)
		scratch[n+1] = byte(c >> 8)
		scratch[n+2] = byte(c >> 16)
		scratch[n+3] = byte(c >> 24)
		n += 4
		if n == packScratch {
			if _, err := zw.Write(scratch[:n]); err != nil {
				return nil, err
			}
			n = 0
		}
	}
	if n > 0 {
		if _, err := zw.Write(scratch[:n]); err != nil {
			return nil, err
		}
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	p.comp = buf.Bytes()
	return p, nil
}

// Unpack rebuilds a WireState from the packed form: a fresh tile window
// and a distrusted-but-byte-identical shadow. cache is the shared tile
// store for the new state (may be nil).
func (p *PackedShadow) Unpack(cache *TileCache) (*WireState, error) {
	var zr io.ReadCloser
	var err error
	if p.dict {
		zr, err = zlib.NewReaderDict(bytes.NewReader(p.comp), dictFor(gfx.PF32()))
	} else {
		zr, err = zlib.NewReader(bytes.NewReader(p.comp))
	}
	if err != nil {
		return nil, fmt.Errorf("rfb: unpack shadow: %w", err)
	}
	defer zr.Close()
	ws := NewWireState(cache, p.w, p.h)
	pix := ws.ensureShadow().Pix()
	var scratch [packScratch]byte
	i := 0
	for i < len(pix) {
		want := (len(pix) - i) * 4
		if want > packScratch {
			want = packScratch
		}
		if _, err := io.ReadFull(zr, scratch[:want]); err != nil {
			return nil, fmt.Errorf("rfb: unpack shadow: %w", err)
		}
		for o := 0; o < want; o += 4 {
			pix[i] = gfx.Color(uint32(scratch[o]) | uint32(scratch[o+1])<<8 |
				uint32(scratch[o+2])<<16 | uint32(scratch[o+3])<<24)
			i++
		}
	}
	if n, _ := zr.Read(scratch[:1]); n != 0 {
		return nil, fmt.Errorf("rfb: unpack shadow: trailing bytes")
	}
	ws.pf, ws.pfSet = p.pf, p.pfSet
	ws.valid = false // the client's adoption of its old shadow is unknowable
	return ws, nil
}
