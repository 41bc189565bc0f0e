package rfb

import (
	"sync"

	"uniint/internal/gfx"
	"uniint/internal/metrics"
)

// The zlib-dict encoding (EncZlibDict) compresses each rectangle against a
// preset dictionary instead of starting cold, so the first occurrence of a
// glyph row or a theme-colored fill already has 32KB of history to match.
// Both ends derive the SAME dictionary deterministically from the toolkit:
// it is never transmitted, only its adler32 checksum crosses the wire (in
// the zlib FDICT header, where the decoder verifies it).
//
// Dictionary layout, least to most valuable (zlib favors bytes near the
// end of the dictionary with shorter match distances):
//
//  1. 64-pixel runs of each theme color — matches fills, bevels, borders.
//  2. Every printable-ASCII glyph row (GlyphW wire pixels: the 5 glyph
//     columns plus 1 spacing column) rendered as Black-on-LightGray, the
//     toolkit's dominant text pairing — matches label/button/toggle text.
//
// The dictionary depends only on the pixel format, so one copy per format
// is built lazily and shared by every connection in the process.

var mDictBuilds = metrics.Default().Counter("rfb_dict_builds_total")

// dictThemeColors are the fill colors seeded as runs, most common last so
// they sit closest to the compressed data.
var dictThemeColors = []gfx.Color{
	gfx.Red, gfx.Yellow, gfx.Green, gfx.Blue,
	gfx.DarkGray, gfx.Gray, gfx.Navy, gfx.Black,
	gfx.White, gfx.LightGray,
}

// dictColorRun is the length in pixels of each theme-color run.
const dictColorRun = 64

var (
	dictMu   sync.Mutex
	dictByPF = map[gfx.PixelFormat][]byte{}
)

// dictFor returns the preset dictionary for pf, building and caching it on
// first use. The returned slice is shared and must not be mutated.
func dictFor(pf gfx.PixelFormat) []byte {
	dictMu.Lock()
	defer dictMu.Unlock()
	if d, ok := dictByPF[pf]; ok {
		return d
	}
	d := buildDict(pf)
	dictByPF[pf] = d
	mDictBuilds.Inc()
	return d
}

// buildDict renders the dictionary content for pf. Deterministic: the
// client and server builds must be byte-identical or the FDICT checksum in
// every EncZlibDict stream fails.
func buildDict(pf gfx.PixelFormat) []byte {
	bpp := pf.BytesPerPixel()
	nGlyphs := 0x7F - 0x20 // printable ASCII
	size := len(dictThemeColors)*dictColorRun*bpp + nGlyphs*7*gfx.GlyphW*bpp
	d := make([]byte, 0, size)
	var px [4]byte

	for _, c := range dictThemeColors {
		n := putPixel(px[:], pf, c)
		for i := 0; i < dictColorRun; i++ {
			d = append(d, px[:n]...)
		}
	}

	// Glyph rows as the text renderer emits them: fg where the glyph mask
	// has a pixel, bg elsewhere, including the inter-glyph spacing column.
	fg, bg := gfx.Black, gfx.LightGray
	for ch := byte(0x20); ch < 0x7F; ch++ {
		for row := 0; row < 7; row++ {
			mask := gfx.GlyphRowMask(ch, row)
			for col := 0; col < gfx.GlyphW; col++ {
				c := bg
				if mask&(1<<uint(col)) != 0 {
					c = fg
				}
				n := putPixel(px[:], pf, c)
				d = append(d, px[:n]...)
			}
		}
	}
	return d
}
