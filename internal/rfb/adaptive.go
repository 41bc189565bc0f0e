package rfb

import (
	"uniint/internal/gfx"
	"uniint/internal/metrics"
)

// The adaptive encoder picks a rectangle encoding from the rectangle's
// actual content instead of honoring only the client's static preference
// order. A bounded probe samples the rectangle on a coarse grid (at most
// adaptiveProbeBudget pixels regardless of rectangle size), counts
// distinct colors through the pooled census table, and classifies the
// content:
//
//	1 distinct color          → RRE (background + zero subrectangles)
//	low color count (GUI-ish) → Hextile (tiles exploit 2D locality)
//	high color count (noise)  → Raw (run encodings would expand and burn CPU)
//
// The probe's cost is bounded and metered: rfb_adaptive_probe_pixels_total
// counts sampled pixels, rfb_adaptive_pick_*_total count decisions.

// EncAdaptive is a server-side pseudo-encoding: an UpdateRect carrying it
// asks PrepareUpdate to choose raw/RRE/hextile per rectangle from the
// rectangle's content, restricted to what the client advertised. It never
// appears on the wire.
const EncAdaptive int32 = -256

// adaptiveProbeBudget caps the number of pixels the probe samples per
// rectangle, bounding the decision cost for arbitrarily large rects.
const adaptiveProbeBudget = 256

// adaptiveMaxHextileColors is the distinct-color threshold separating
// GUI-like content (flat fills, bevels, text on solid grounds) from
// photographic/noise content.
const adaptiveMaxHextileColors = 24

// Encoding capability bits, derived from the client's SetEncodings.
// Exactly eight bits: the mask lives in a uint8.
const (
	encBitRaw = 1 << iota
	encBitRRE
	encBitHextile
	encBitZlib
	encBitZlibDict
	encBitCopyRect
	encBitTileRef
	encBitTileInstall
)

var (
	mProbePixels = metrics.Default().Counter("rfb_adaptive_probe_pixels_total")
	mPickRaw     = metrics.Default().Counter("rfb_adaptive_pick_raw_total")
	mPickRRE     = metrics.Default().Counter("rfb_adaptive_pick_rre_total")
	mPickHextile = metrics.Default().Counter("rfb_adaptive_pick_hextile_total")
)

func countPick(enc int32) {
	switch enc {
	case EncRaw:
		mPickRaw.Inc()
	case EncRRE:
		mPickRRE.Inc()
	case EncHextile:
		mPickHextile.Inc()
	}
}

// encodingMask maps an advertised encoding list to capability bits.
func encodingMask(encs []int32) uint8 {
	var m uint8
	for _, e := range encs {
		switch e {
		case EncRaw:
			m |= encBitRaw
		case EncRRE:
			m |= encBitRRE
		case EncHextile:
			m |= encBitHextile
		case EncZlib:
			m |= encBitZlib
		case EncZlibDict:
			m |= encBitZlibDict
		case EncCopyRect:
			m |= encBitCopyRect
		case EncTileRef:
			m |= encBitTileRef
		case EncTileInstall:
			m |= encBitTileInstall
		}
	}
	return m
}

// probeDistinct samples r on a coarse grid (≤ adaptiveProbeBudget pixels)
// and returns the number of distinct colors seen.
func probeDistinct(fb *gfx.Framebuffer, r gfx.Rect, sc *encodeScratch) int {
	// Stride so that sampled columns × sampled rows ≈ the budget: a
	// 16×16 grid over the rect, degenerating to every pixel for rects
	// at or below 16 pixels per side.
	sx := (r.W + 15) / 16
	sy := (r.H + 15) / 16
	sc.hist.reset()
	sampled := 0
	for y := r.Y; y < r.MaxY(); y += sy {
		row := fb.Pix()[y*fb.W()+r.X : y*fb.W()+r.MaxX()]
		for x := 0; x < r.W; x += sx {
			sc.hist.add(row[x])
			sampled++
		}
	}
	mProbePixels.Add(int64(sampled))
	return sc.hist.distinct
}

// chooseEncoding picks the encoding for one rectangle. mask restricts the
// choice to client-advertised encodings; fallback is used when the mask
// leaves no room to adapt.
func chooseEncoding(fb *gfx.Framebuffer, r gfx.Rect, mask uint8, fallback int32, sc *encodeScratch) int32 {
	adaptable := mask & (encBitRaw | encBitRRE | encBitHextile)
	if adaptable == 0 || adaptable&(adaptable-1) == 0 {
		// Zero or one usable encoding: nothing to adapt between.
		return fallback
	}
	distinct := probeDistinct(fb, r, sc)
	var pick int32
	switch {
	case distinct <= 1 && mask&encBitRRE != 0:
		pick = EncRRE
	case distinct <= adaptiveMaxHextileColors && mask&encBitHextile != 0:
		pick = EncHextile
	case distinct <= adaptiveMaxHextileColors && mask&encBitRRE != 0:
		// No hextile advertised, but low-color content still compresses
		// well under RRE's run scan — far better than falling through
		// to raw.
		pick = EncRRE
	case mask&encBitRaw != 0:
		pick = EncRaw
	case mask&encBitHextile != 0:
		// No raw advertised: hextile's per-tile raw fallback bounds the
		// expansion on noisy content.
		pick = EncHextile
	case mask&encBitRRE != 0:
		pick = EncRRE
	default:
		return fallback
	}
	countPick(pick)
	return pick
}

// AdaptiveEncoding exposes the content probe outside a live connection
// (benchmarks, tests): it picks among raw, RRE and hextile for the given
// rectangle as a server with a fully-capable client would.
func AdaptiveEncoding(fb *gfx.Framebuffer, r gfx.Rect) int32 {
	sc := getScratch()
	defer putScratch(sc)
	return chooseEncoding(fb, r, encBitRaw|encBitRRE|encBitHextile, EncRaw, sc)
}
