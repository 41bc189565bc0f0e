package rfb_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"uniint/internal/gfx"
	"uniint/internal/rfb"
	"uniint/internal/workload"
)

func init() { rfb.FuzzCorpora["FuzzDecodeRect"] = decodeRectSeeds }

// The fuzzed framebuffer and the pixel formats the proxy's output devices
// decode under (TV, PDA, phone). A head argument picks one by index.
const decodeFBW, decodeFBH = 40, 30

var decodeFormats = []gfx.PixelFormat{gfx.PF32(), gfx.PF16(), gfx.PF8()}

// decodeHead packs a FuzzDecodeRect head: the encoding id, the rectangle
// as the wire carries it (four big-endian uint16) and a format index.
func decodeHead(enc int32, r gfx.Rect, pfIndex int) []byte {
	h := binary.BigEndian.AppendUint32(nil, uint32(enc))
	for _, v := range []int{r.X, r.Y, r.W, r.H} {
		h = binary.BigEndian.AppendUint16(h, uint16(v))
	}
	return append(h, byte(pfIndex))
}

// FuzzDecodeRect is the client's side of "a malicious home must not crash
// a proxy": whatever encoding, rectangle and body a server sends, decoding
// into a small framebuffer returns (an error at worst) without panicking,
// and changes no pixel outside the rectangle's overlap with the
// framebuffer.
func FuzzDecodeRect(f *testing.F) {
	f.Fuzz(func(t *testing.T, head, body []byte) {
		if len(head) != 13 {
			return
		}
		enc := int32(binary.BigEndian.Uint32(head))
		u16 := func(i int) int { return int(binary.BigEndian.Uint16(head[4+2*i:])) }
		r := gfx.R(u16(0), u16(1), u16(2), u16(3))
		pf := decodeFormats[int(head[12])%len(decodeFormats)]
		fb := gfx.NewFramebuffer(decodeFBW, decodeFBH)
		for i := range fb.Pix() {
			fb.Pix()[i] = gfx.Color(uint32(i) * 2654435761)
		}
		before := fb.Clone()
		_ = rfb.DecodeRectBytes(bytes.NewReader(body), enc, fb, r, pf)
		in := r.Intersect(fb.Bounds())
		for y := 0; y < decodeFBH; y++ {
			for x := 0; x < decodeFBW; x++ {
				if !in.Contains(x, y) && fb.At(x, y) != before.At(x, y) {
					t.Fatalf("%s into %v under %d-bit: pixel (%d,%d) outside it changed",
						rfb.EncodingName(enc), r, pf.BitsPerPixel, x, y)
				}
			}
		}
	})
}

// decodeRectSeeds builds the committed FuzzDecodeRect corpus: every
// encoding EncodeRectInto produces, over each workload frame class, under
// each proxy pixel format — placed inside the framebuffer (PF32), across
// its corner (PF16) and at its origin (PF8) — plus a tile install wrapping
// each hextile body, a reference to a tile never installed, and hostile
// RRE and hextile subrectangles reaching past their rectangle and tile.
func decodeRectSeeds() map[string][][]byte {
	const w, h = 24, 16
	at := []gfx.Rect{gfx.R(8, 6, w, h), gfx.R(28, 20, w, h), gfx.R(0, 0, w, h)}
	px := []byte{1, 2, 3, 0} // one PF32 pixel
	// One subrectangle at (20,10) sized 30×30 inside a 24×16 rectangle.
	rre := append(append([]byte{0, 0, 0, 1}, px...), px...)
	rre = append(rre, 0, 20, 0, 10, 0, 30, 0, 30)
	// A 20×20 rectangle: a background-only 16×16 tile, then a 4×16 tile
	// whose one 16×16 subrectangle reaches 12 px past it; the last two
	// tiles reuse the background.
	hextile := append([]byte{2}, px...)
	hextile = append(append(append(append(hextile, 2|4|8), px...), px...), 1, 0x00, 0xFF, 0, 0)
	seeds := map[string][][]byte{
		"tileref-unknown":  {decodeHead(rfb.EncTileRef, at[0], 0), make([]byte, 8)},
		"rre-overhang":     {decodeHead(rfb.EncRRE, at[0], 0), rre},
		"hextile-overhang": {decodeHead(rfb.EncHextile, gfx.R(2, 2, 20, 20), 0), hextile},
	}
	for name, frame := range workload.Frames(w, h) {
		for i, pf := range decodeFormats {
			for _, enc := range []int32{rfb.EncRaw, rfb.EncRRE, rfb.EncHextile, rfb.EncZlib, rfb.EncZlibDict} {
				body, err := rfb.EncodeRectInto(nil, enc, frame, frame.Bounds(), pf)
				if err != nil {
					panic(err)
				}
				key := fmt.Sprintf("%s-%s-%d", rfb.EncodingName(enc), name, pf.BitsPerPixel)
				seeds[key] = [][]byte{decodeHead(enc, at[i], i), body}
				if enc == rfb.EncHextile {
					inst := binary.BigEndian.AppendUint64(nil, 1)
					inst = append(binary.BigEndian.AppendUint32(inst, uint32(rfb.EncHextile)), body...)
					seeds["tileinstall-"+key[len("hextile-"):]] = [][]byte{decodeHead(rfb.EncTileInstall, at[i], i), inst}
				}
			}
		}
	}
	return seeds
}
