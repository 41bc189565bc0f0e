package rfb

import (
	"io"

	"uniint/internal/gfx"
)

// EncodeRectInto encodes one rectangle body (without the 12-byte wire
// header) using the given encoding and pixel format, appending to dst —
// nil for a fresh buffer, or a reused one (pass dst[:0] across calls).
// The encode runs on pooled scratch; with a warmed-up dst the steady
// state performs zero allocations for the raw, RRE and hextile encodings.
func EncodeRectInto(dst []byte, enc int32, fb *gfx.Framebuffer, r gfx.Rect, pf gfx.PixelFormat) ([]byte, error) {
	sc := getScratch()
	defer putScratch(sc)
	return encodeRect(dst, enc, fb, r, pf, sc)
}

// DecodeRectBytes decodes one rectangle body produced by EncodeRectInto
// into fb at r.
func DecodeRectBytes(rd io.Reader, enc int32, fb *gfx.Framebuffer, r gfx.Rect, pf gfx.PixelFormat) error {
	var dsc decodeScratch
	return decodeRect(rd, enc, fb, r, pf, &dsc)
}
