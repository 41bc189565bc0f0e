package rfb

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"io"

	"uniint/internal/gfx"
)

// encodeRect serializes the pixels of fb inside r using the given encoding
// and appends the wire bytes to dst. The rectangle header is NOT included.
// sc provides the caller-owned scratch (run buffers, color census, zlib
// machinery); the steady-state encode path allocates nothing beyond dst's
// amortized growth.
func encodeRect(dst []byte, enc int32, fb *gfx.Framebuffer, r gfx.Rect, pf gfx.PixelFormat, sc *encodeScratch) ([]byte, error) {
	switch enc {
	case EncRaw:
		return encodeRaw(dst, fb, r, pf), nil
	case EncRRE:
		return encodeRRE(dst, fb, r, pf, sc), nil
	case EncHextile:
		return encodeHextile(dst, fb, r, pf, sc), nil
	case EncZlib:
		return encodeZlib(dst, fb, r, pf, sc)
	case EncZlibDict:
		return encodeZlibDict(dst, fb, r, pf, sc)
	default:
		return nil, fmt.Errorf("rfb: cannot encode with %s", EncodingName(enc))
	}
}

// decodeRect reads one rectangle body from rd and paints it into fb at r.
// dsc provides the reusable decode buffers (rows, zlib staging) and the
// tile window; a connection keeps one for its life.
func decodeRect(rd io.Reader, enc int32, fb *gfx.Framebuffer, r gfx.Rect, pf gfx.PixelFormat, dsc *decodeScratch) error {
	switch enc {
	case EncRaw:
		return decodeRaw(rd, fb, r, pf, dsc)
	case EncRRE:
		return decodeRRE(rd, fb, r, pf)
	case EncHextile:
		return decodeHextile(rd, fb, r, pf, dsc)
	case EncZlib:
		return decodeZlib(rd, fb, r, pf, dsc)
	case EncZlibDict:
		return decodeZlibDict(rd, fb, r, pf, dsc)
	case EncTileInstall:
		return decodeTileInstall(rd, fb, r, pf, dsc)
	case EncTileRef:
		return decodeTileRef(rd, fb, r, dsc)
	default:
		return fmt.Errorf("rfb: cannot decode %s: %w", EncodingName(enc), ErrBadMessage)
	}
}

// --- Raw ---------------------------------------------------------------
//
// Under exactly gfx.PF32() — the server's native format, what a cold
// join's full frame and its zlib pre-image are in — a wire pixel is the
// Color's low 24 bits, little-endian: whole rows move as words, without
// the three integer divides per pixel of PixelFormat.Encode. Every other
// format goes pixel by pixel through putPixel/getPixel.

func encodeRaw(dst []byte, fb *gfx.Framebuffer, r gfx.Rect, pf gfx.PixelFormat) []byte {
	bpp := pf.BytesPerPixel()
	need := r.W * r.H * bpp
	start := len(dst)
	dst = append(dst, make([]byte, need)...) // recognized append-make: grows dst in place
	out := dst[start:]
	rows := pf == gfx.PF32()
	i := 0
	for y := r.Y; y < r.MaxY(); y++ {
		row := fb.Pix()[y*fb.W()+r.X : y*fb.W()+r.MaxX()]
		if rows {
			for _, c := range row {
				binary.LittleEndian.PutUint32(out[i:], uint32(c)&0xFFFFFF)
				i += 4
			}
			continue
		}
		for _, c := range row {
			i += putPixel(out[i:], pf, c)
		}
	}
	return dst
}

func decodeRaw(rd io.Reader, fb *gfx.Framebuffer, r gfx.Rect, pf gfx.PixelFormat, dsc *decodeScratch) error {
	bpp := pf.BytesPerPixel()
	dsc.row = grow(dsc.row, r.W*bpp)
	buf := dsc.row
	// The row path keeps Framebuffer.Set's out-of-bounds behaviour: rows
	// and columns outside fb are read off the wire and not written.
	rows := pf == gfx.PF32()
	x0, x1 := max(r.X, 0), min(r.MaxX(), fb.W())
	for y := r.Y; y < r.MaxY(); y++ {
		if _, err := io.ReadFull(rd, buf); err != nil {
			return err
		}
		if rows {
			if y >= 0 && y < fb.H() && x0 < x1 {
				row, src := fb.Pix()[y*fb.W()+x0:y*fb.W()+x1], buf[(x0-r.X)*4:]
				for j := range row {
					row[j] = gfx.Color(binary.LittleEndian.Uint32(src[j*4:]) & 0xFFFFFF)
				}
			}
			continue
		}
		i := 0
		for x := r.X; x < r.MaxX(); x++ {
			c, n := getPixel(buf[i:], pf)
			i += n
			fb.Set(x, y, c)
		}
	}
	return nil
}

// --- RRE ----------------------------------------------------------------
//
// Rise-and-run-length encoding: a background color plus a list of solid
// subrectangles. The encoder picks the most frequent color as background
// and emits one height-1 subrectangle per maximal non-background run.

// dominantColor runs a census over the rect through the scratch histogram
// and returns the most frequent color. On saturated content (more distinct
// colors than the table holds) the result is approximate, which costs
// compression ratio but never correctness.
func dominantColor(fb *gfx.Framebuffer, r gfx.Rect, sc *encodeScratch) gfx.Color {
	sc.hist.reset()
	for y := r.Y; y < r.MaxY(); y++ {
		row := fb.Pix()[y*fb.W()+r.X : y*fb.W()+r.MaxX()]
		for _, c := range row {
			sc.hist.add(c)
		}
	}
	bg, _ := sc.hist.max()
	return bg
}

// scanRuns appends one height-1 subrectangle per maximal non-bg run of
// rect-local coordinates to sc.subs (reset first) and returns the slice.
func scanRuns(fb *gfx.Framebuffer, r gfx.Rect, bg gfx.Color, sc *encodeScratch) []rreSub {
	subs := sc.subs[:0]
	for y := 0; y < r.H; y++ {
		row := fb.Pix()[(r.Y+y)*fb.W()+r.X : (r.Y+y)*fb.W()+r.MaxX()]
		x := 0
		for x < r.W {
			c := row[x]
			if c == bg {
				x++
				continue
			}
			x0 := x
			for x < r.W && row[x] == c {
				x++
			}
			subs = append(subs, rreSub{c: c, x: x0, y: y, w: x - x0, h: 1})
		}
	}
	sc.subs = subs
	return subs
}

func encodeRRE(dst []byte, fb *gfx.Framebuffer, r gfx.Rect, pf gfx.PixelFormat, sc *encodeScratch) []byte {
	bg := dominantColor(fb, r, sc)
	subs := scanRuns(fb, r, bg, sc)

	var hdr [4]byte
	be.PutUint32(hdr[:], uint32(len(subs)))
	dst = append(dst, hdr[:]...)
	var px [4]byte
	n := putPixel(px[:], pf, bg)
	dst = append(dst, px[:n]...)
	var geo [8]byte
	for _, s := range subs {
		n := putPixel(px[:], pf, s.c)
		dst = append(dst, px[:n]...)
		be.PutUint16(geo[0:], uint16(s.x))
		be.PutUint16(geo[2:], uint16(s.y))
		be.PutUint16(geo[4:], uint16(s.w))
		be.PutUint16(geo[6:], uint16(s.h))
		dst = append(dst, geo[:]...)
	}
	return dst
}

func decodeRRE(rd io.Reader, fb *gfx.Framebuffer, r gfx.Rect, pf gfx.PixelFormat) error {
	nsub, err := readU32(rd)
	if err != nil {
		return err
	}
	if nsub > uint32(r.Area()) {
		return fmt.Errorf("rfb: rre subrect count %d exceeds area: %w", nsub, ErrBadMessage)
	}
	bpp := pf.BytesPerPixel()
	var bufArr [12]byte
	buf := bufArr[:bpp+8]
	if _, err := io.ReadFull(rd, buf[:bpp]); err != nil {
		return err
	}
	bg, _ := getPixel(buf, pf)
	fb.Fill(r, bg)
	for i := uint32(0); i < nsub; i++ {
		if _, err := io.ReadFull(rd, buf); err != nil {
			return err
		}
		c, _ := getPixel(buf, pf)
		sx := int(be.Uint16(buf[bpp:]))
		sy := int(be.Uint16(buf[bpp+2:]))
		sw := int(be.Uint16(buf[bpp+4:]))
		sh := int(be.Uint16(buf[bpp+6:]))
		fb.Fill(gfx.R(r.X+sx, r.Y+sy, sw, sh).Intersect(r), c)
	}
	return nil
}

// --- Hextile -------------------------------------------------------------
//
// The rectangle is split into 16×16 tiles, each encoded independently with
// a subencoding mask. This implementation always specifies the background
// (and foreground where applicable) explicitly, which the specification
// permits.

const (
	hextileRaw        = 1
	hextileBackground = 2
	hextileForeground = 4
	hextileAnySubrect = 8
	hextileColoured   = 16
)

func encodeHextile(dst []byte, fb *gfx.Framebuffer, r gfx.Rect, pf gfx.PixelFormat, sc *encodeScratch) []byte {
	for ty := r.Y; ty < r.MaxY(); ty += 16 {
		th := min(16, r.MaxY()-ty)
		for tx := r.X; tx < r.MaxX(); tx += 16 {
			tw := min(16, r.MaxX()-tx)
			tile := gfx.R(tx, ty, tw, th)
			dst = encodeHextileTile(dst, fb, tile, pf, sc)
		}
	}
	return dst
}

func encodeHextileTile(dst []byte, fb *gfx.Framebuffer, tile gfx.Rect, pf gfx.PixelFormat, sc *encodeScratch) []byte {
	// Census of tile colors. A tile holds at most 256 pixels, far below
	// the census capacity, so distinct counts are exact here.
	sc.hist.reset()
	for y := tile.Y; y < tile.MaxY(); y++ {
		row := fb.Pix()[y*fb.W()+tile.X : y*fb.W()+tile.MaxX()]
		for _, c := range row {
			sc.hist.add(c)
		}
	}
	bg, _ := sc.hist.max()
	distinct := sc.hist.distinct

	runs := scanRuns(fb, tile, bg, sc)

	bpp := pf.BytesPerPixel()
	var px [4]byte
	switch {
	case distinct == 1:
		dst = append(dst, hextileBackground)
		n := putPixel(px[:], pf, bg)
		dst = append(dst, px[:n]...)

	case distinct == 2 && len(runs) <= 255:
		fg := sc.hist.other(bg)
		dst = append(dst, hextileBackground|hextileForeground|hextileAnySubrect)
		n := putPixel(px[:], pf, bg)
		dst = append(dst, px[:n]...)
		n = putPixel(px[:], pf, fg)
		dst = append(dst, px[:n]...)
		dst = append(dst, uint8(len(runs)))
		for _, s := range runs {
			dst = append(dst, uint8(s.x<<4|s.y), uint8((s.w-1)<<4|(s.h-1)))
		}

	default:
		colouredSize := 1 + bpp + 1 + len(runs)*(bpp+2)
		rawSize := 1 + tile.Area()*bpp
		if len(runs) <= 255 && colouredSize < rawSize {
			dst = append(dst, hextileBackground|hextileAnySubrect|hextileColoured)
			n := putPixel(px[:], pf, bg)
			dst = append(dst, px[:n]...)
			dst = append(dst, uint8(len(runs)))
			for _, s := range runs {
				n := putPixel(px[:], pf, s.c)
				dst = append(dst, px[:n]...)
				dst = append(dst, uint8(s.x<<4|s.y), uint8((s.w-1)<<4|(s.h-1)))
			}
		} else {
			dst = append(dst, hextileRaw)
			dst = encodeRaw(dst, fb, tile, pf)
		}
	}
	return dst
}

func decodeHextile(rd io.Reader, fb *gfx.Framebuffer, r gfx.Rect, pf gfx.PixelFormat, dsc *decodeScratch) error {
	bpp := pf.BytesPerPixel()
	var buf [4]byte
	var bg, fg gfx.Color
	for ty := r.Y; ty < r.MaxY(); ty += 16 {
		th := min(16, r.MaxY()-ty)
		for tx := r.X; tx < r.MaxX(); tx += 16 {
			tw := min(16, r.MaxX()-tx)
			tile := gfx.R(tx, ty, tw, th)
			mask, err := readU8(rd)
			if err != nil {
				return err
			}
			if mask&hextileRaw != 0 {
				if err := decodeRaw(rd, fb, tile, pf, dsc); err != nil {
					return err
				}
				continue
			}
			if mask&hextileBackground != 0 {
				if _, err := io.ReadFull(rd, buf[:bpp]); err != nil {
					return err
				}
				bg, _ = getPixel(buf[:], pf)
			}
			if mask&hextileForeground != 0 {
				if _, err := io.ReadFull(rd, buf[:bpp]); err != nil {
					return err
				}
				fg, _ = getPixel(buf[:], pf)
			}
			fb.Fill(tile, bg)
			if mask&hextileAnySubrect == 0 {
				continue
			}
			nsub, err := readU8(rd)
			if err != nil {
				return err
			}
			coloured := mask&hextileColoured != 0
			for i := 0; i < int(nsub); i++ {
				c := fg
				if coloured {
					if _, err := io.ReadFull(rd, buf[:bpp]); err != nil {
						return err
					}
					c, _ = getPixel(buf[:], pf)
				}
				if _, err := io.ReadFull(rd, buf[:2]); err != nil {
					return err
				}
				sx := int(buf[0] >> 4)
				sy := int(buf[0] & 0xF)
				sw := int(buf[1]>>4) + 1
				sh := int(buf[1]&0xF) + 1
				fb.Fill(gfx.R(tile.X+sx, tile.Y+sy, sw, sh).Intersect(tile), c)
			}
		}
	}
	return nil
}

// --- Zlib ----------------------------------------------------------------

func encodeZlib(dst []byte, fb *gfx.Framebuffer, r gfx.Rect, pf gfx.PixelFormat, sc *encodeScratch) ([]byte, error) {
	sc.raw = encodeRaw(sc.raw[:0], fb, r, pf)
	sc.zbuf.Reset()
	if sc.zw == nil {
		sc.zw = zlib.NewWriter(&sc.zbuf)
	} else {
		sc.zw.Reset(&sc.zbuf)
	}
	if _, err := sc.zw.Write(sc.raw); err != nil {
		return nil, fmt.Errorf("rfb: zlib encode: %w", err)
	}
	if err := sc.zw.Close(); err != nil {
		return nil, fmt.Errorf("rfb: zlib close: %w", err)
	}
	var hdr [4]byte
	be.PutUint32(hdr[:], uint32(sc.zbuf.Len()))
	dst = append(dst, hdr[:]...)
	dst = append(dst, sc.zbuf.Bytes()...)
	return dst, nil
}

func decodeZlib(rd io.Reader, fb *gfx.Framebuffer, r gfx.Rect, pf gfx.PixelFormat, dsc *decodeScratch) error {
	return decodeZlibBody(rd, fb, r, pf, dsc, nil)
}

// decodeZlibBody reads one length-prefixed zlib stream and paints the
// decompressed raw pre-image into fb at r. dict is the preset dictionary
// the stream's FDICT header demands (nil for plain EncZlib); the stdlib
// reader verifies the dictionary checksum against the header.
func decodeZlibBody(rd io.Reader, fb *gfx.Framebuffer, r gfx.Rect, pf gfx.PixelFormat, dsc *decodeScratch, dict []byte) error {
	n, err := readU32(rd)
	if err != nil {
		return err
	}
	const maxZlibRect = 64 << 20
	if n > maxZlibRect {
		return fmt.Errorf("rfb: zlib rect of %d bytes: %w", n, ErrBadMessage)
	}
	dsc.comp = grow(dsc.comp, int(n))
	if _, err := io.ReadFull(rd, dsc.comp); err != nil {
		return err
	}
	if dsc.zrr == nil {
		dsc.zrr = bytes.NewReader(dsc.comp)
	} else {
		dsc.zrr.Reset(dsc.comp)
	}
	if dsc.zr == nil {
		zr, err := zlib.NewReaderDict(dsc.zrr, dict)
		if err != nil {
			return fmt.Errorf("rfb: zlib decode: %w", err)
		}
		dsc.zr = zr.(zlibResetter)
	} else if err := dsc.zr.Reset(dsc.zrr, dict); err != nil {
		return fmt.Errorf("rfb: zlib decode: %w", err)
	}
	return decodeRaw(dsc.zr, fb, r, pf, dsc)
}

// --- ZlibDict ------------------------------------------------------------
//
// Same wire shape as Zlib (u32 length + one independent zlib stream), but
// the stream is compressed against the preset per-format dictionary both
// ends derive from the toolkit (dict.go), announced through zlib's FDICT
// header.

func encodeZlibDict(dst []byte, fb *gfx.Framebuffer, r gfx.Rect, pf gfx.PixelFormat, sc *encodeScratch) ([]byte, error) {
	sc.raw = encodeRaw(sc.raw[:0], fb, r, pf)
	sc.zbuf.Reset()
	if sc.zwd == nil || sc.zwdPF != pf {
		zw, err := zlib.NewWriterLevelDict(&sc.zbuf, zlib.DefaultCompression, dictFor(pf))
		if err != nil {
			return nil, fmt.Errorf("rfb: zlib-dict encode: %w", err)
		}
		sc.zwd, sc.zwdPF = zw, pf
	} else {
		sc.zwd.Reset(&sc.zbuf)
	}
	if _, err := sc.zwd.Write(sc.raw); err != nil {
		return nil, fmt.Errorf("rfb: zlib-dict encode: %w", err)
	}
	if err := sc.zwd.Close(); err != nil {
		return nil, fmt.Errorf("rfb: zlib-dict close: %w", err)
	}
	var hdr [4]byte
	be.PutUint32(hdr[:], uint32(sc.zbuf.Len()))
	dst = append(dst, hdr[:]...)
	return append(dst, sc.zbuf.Bytes()...), nil
}

func decodeZlibDict(rd io.Reader, fb *gfx.Framebuffer, r gfx.Rect, pf gfx.PixelFormat, dsc *decodeScratch) error {
	return decodeZlibBody(rd, fb, r, pf, dsc, dictFor(pf))
}

// --- Tile install / ref --------------------------------------------------
//
// EncTileInstall: u64 tile id + s32 inner encoding + inner body. The
// inner body paints the rectangle like any update, and the decoded pixels
// are additionally retained in the connection's tile memory under the
// id. EncTileRef: u64 id alone; the remembered pixels are replayed.
// Both ends run the same fixed-capacity LRU over the install/ref stream
// (tilecache.go), so a ref only ever names a tile still remembered.

// clientTile is the client's payload in its tile window: a remembered
// tile's geometry and decoded pixels, the buffer reused when its slot is
// evicted.
type clientTile struct {
	w, h int
	pix  []gfx.Color
}

func decodeTileInstall(rd io.Reader, fb *gfx.Framebuffer, r gfx.Rect, pf gfx.PixelFormat, dsc *decodeScratch) error {
	id, err := readU64(rd)
	if err != nil {
		return err
	}
	encU, err := readU32(rd)
	if err != nil {
		return err
	}
	inner := int32(encU)
	switch inner {
	case EncRaw, EncRRE, EncHextile:
	default:
		return fmt.Errorf("rfb: tile install with inner %s: %w", EncodingName(inner), ErrBadMessage)
	}
	if !rectInside(r, fb) {
		return fmt.Errorf("rfb: tile install outside framebuffer: %w", ErrBadMessage)
	}
	if err := decodeRect(rd, inner, fb, r, pf, dsc); err != nil {
		return err
	}
	// Remember the painted pixels under id. Re-installing a held id
	// overwrites them (the server re-installs after its window was reset,
	// or when the id is now another content's).
	t := dsc.tiles.put(id)
	t.w, t.h = r.W, r.H
	if cap(t.pix) < r.Area() {
		t.pix = make([]gfx.Color, r.Area())
	}
	t.pix = t.pix[:r.Area()]
	w, pix := fb.W(), fb.Pix()
	for y := 0; y < r.H; y++ {
		copy(t.pix[y*r.W:(y+1)*r.W], pix[(r.Y+y)*w+r.X:(r.Y+y)*w+r.MaxX()])
	}
	return nil
}

func decodeTileRef(rd io.Reader, fb *gfx.Framebuffer, r gfx.Rect, dsc *decodeScratch) error {
	id, err := readU64(rd)
	if err != nil {
		return err
	}
	if !rectInside(r, fb) {
		return fmt.Errorf("rfb: tile ref outside framebuffer: %w", ErrBadMessage)
	}
	// An unknown id or other geometry is a protocol violation by the server.
	t := dsc.tiles.get(id)
	if t == nil || t.w != r.W || t.h != r.H {
		return fmt.Errorf("rfb: tile ref to unknown tile %016x: %w", id, ErrBadMessage)
	}
	w, pix := fb.W(), fb.Pix()
	for y := 0; y < r.H; y++ {
		copy(pix[(r.Y+y)*w+r.X:(r.Y+y)*w+r.MaxX()], t.pix[y*r.W:(y+1)*r.W])
	}
	return nil
}

// rectInside reports whether r lies fully inside fb — the precondition for
// the tile encodings' direct pixel-slice access.
func rectInside(r gfx.Rect, fb *gfx.Framebuffer) bool {
	return !r.Empty() && r.X >= 0 && r.Y >= 0 && r.MaxX() <= fb.W() && r.MaxY() <= fb.H()
}
