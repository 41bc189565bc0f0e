package rfb

import (
	"bytes"
	"compress/zlib"
	"sync"

	"uniint/internal/gfx"
	"uniint/internal/metrics"
)

// The update pipeline's per-encode working set lives in pooled scratch
// buffers so the steady-state hot loop (damage → encode → write) performs
// zero allocations. One encodeScratch carries everything an encode pass
// needs: the output buffer, the run/subrectangle scratch shared by RRE and
// hextile, the color census table used by both the encoders and the
// adaptive probe, and the reusable zlib machinery.
//
// Scratches are handed out by getScratch/putScratch around a sync.Pool.
// The pool's hit rate is exported through the rfb_scratch_pool_* counters:
// hit rate = 1 - misses/gets.

// Pre-resolved instruments; the hot path touches only atomics.
var (
	mPoolGets   = metrics.Default().Counter("rfb_scratch_pool_gets_total")
	mPoolMisses = metrics.Default().Counter("rfb_scratch_pool_misses_total")

	mBytesRaw         = metrics.Default().Counter("rfb_encode_raw_bytes_total")
	mBytesRRE         = metrics.Default().Counter("rfb_encode_rre_bytes_total")
	mBytesHextile     = metrics.Default().Counter("rfb_encode_hextile_bytes_total")
	mBytesZlib        = metrics.Default().Counter("rfb_encode_zlib_bytes_total")
	mBytesCopy        = metrics.Default().Counter("rfb_encode_copyrect_bytes_total")
	mBytesZlibDict    = metrics.Default().Counter("rfb_encode_zlibdict_bytes_total")
	mBytesTileInstall = metrics.Default().Counter("rfb_encode_tileinstall_bytes_total")
	mBytesTileRef     = metrics.Default().Counter("rfb_encode_tileref_bytes_total")
)

// countEncodedBytes attributes one rectangle body to its encoding's
// bytes-out counter.
func countEncodedBytes(enc int32, n int) {
	switch enc {
	case EncRaw:
		mBytesRaw.Add(int64(n))
	case EncRRE:
		mBytesRRE.Add(int64(n))
	case EncHextile:
		mBytesHextile.Add(int64(n))
	case EncZlib:
		mBytesZlib.Add(int64(n))
	case EncCopyRect:
		mBytesCopy.Add(int64(n))
	case EncZlibDict:
		mBytesZlibDict.Add(int64(n))
	case EncTileInstall:
		mBytesTileInstall.Add(int64(n))
	case EncTileRef:
		mBytesTileRef.Add(int64(n))
	}
}

// rreSub is one solid subrectangle found by the run scanners.
type rreSub struct {
	c          gfx.Color
	x, y, w, h int
}

// histSize is the color census capacity: a power of two comfortably above
// the 256 pixels of a hextile tile and the adaptive probe's sample budget,
// so those censuses are exact. Bigger rects (RRE background scans) may
// saturate the table; saturation only degrades the background choice, not
// correctness.
const histSize = 1024

// maxHistProbe bounds the open-addressing walk so a census over
// adversarial content stays O(1) per pixel.
const maxHistProbe = 16

// colorHist is a generation-tagged open-addressing color counter. Reset is
// O(1): it bumps the generation, invalidating every slot lazily.
type colorHist struct {
	keys   [histSize]gfx.Color
	counts [histSize]int32
	gens   [histSize]uint32
	gen    uint32

	distinct  int  // number of live slots
	saturated bool // at least one color was dropped
}

func (h *colorHist) reset() {
	h.gen++
	if h.gen == 0 { // generation wrapped: hard-clear the tags once
		h.gens = [histSize]uint32{}
		h.gen = 1
	}
	h.distinct = 0
	h.saturated = false
}

func hashColor(c gfx.Color) uint32 {
	return uint32(c) * 2654435761 // Knuth multiplicative hash
}

// add counts one pixel. Returns the color's slot count after the add, or 0
// when the table is saturated and the color was dropped.
func (h *colorHist) add(c gfx.Color) int32 {
	i := hashColor(c) & (histSize - 1)
	for p := 0; p < maxHistProbe; p++ {
		if h.gens[i] != h.gen {
			h.gens[i] = h.gen
			h.keys[i] = c
			h.counts[i] = 1
			h.distinct++
			return 1
		}
		if h.keys[i] == c {
			h.counts[i]++
			return h.counts[i]
		}
		i = (i + 1) & (histSize - 1)
	}
	h.saturated = true
	return 0
}

// max returns the most frequent counted color.
func (h *colorHist) max() (gfx.Color, int32) {
	var best gfx.Color
	var bestN int32 = -1
	if h.distinct == 0 {
		return best, 0
	}
	seen := 0
	for i := 0; i < histSize && seen < h.distinct; i++ {
		if h.gens[i] != h.gen {
			continue
		}
		seen++
		if h.counts[i] > bestN || (h.counts[i] == bestN && h.keys[i] < best) {
			best, bestN = h.keys[i], h.counts[i]
		}
	}
	return best, bestN
}

// other returns a live color different from c (used for the hextile
// two-color fast path).
func (h *colorHist) other(c gfx.Color) gfx.Color {
	seen := 0
	for i := 0; i < histSize && seen < h.distinct; i++ {
		if h.gens[i] != h.gen {
			continue
		}
		seen++
		if h.keys[i] != c {
			return h.keys[i]
		}
	}
	return c
}

// encodeScratch is the pooled working set of one encode pass.
type encodeScratch struct {
	prep PreparedUpdate // reused PreparedUpdate shell (bodies live in prep.buf)
	subs []rreSub       // RRE / hextile run scratch
	hist colorHist      // color census (encoders + adaptive probe)

	raw  []byte       // zlib: staging buffer for the raw pre-image
	zbuf bytes.Buffer // zlib: compressed output staging
	zw   *zlib.Writer // zlib: reusable compressor

	// zlib-dict compressor: Reset retains the preset dictionary, so the
	// writer is only rebuilt when the pixel format (and with it the
	// dictionary) changes.
	zwd   *zlib.Writer
	zwdPF gfx.PixelFormat
}

var scratchPool = sync.Pool{
	New: func() any {
		mPoolMisses.Inc()
		return &encodeScratch{}
	},
}

func getScratch() *encodeScratch {
	mPoolGets.Inc()
	return scratchPool.Get().(*encodeScratch)
}

func putScratch(sc *encodeScratch) {
	if sc == nil {
		return
	}
	sc.prep.sc = nil
	scratchPool.Put(sc)
}

// decodeScratch is the client-side counterpart: reusable buffers for the
// decode loop so a streaming viewer does not allocate per rectangle.
type decodeScratch struct {
	row  []byte        // raw: one row of wire pixels
	comp []byte        // zlib: compressed body staging
	zr   zlibResetter  // zlib: reusable decompressor
	zrr  *bytes.Reader // zlib: reusable source reader

	tiles tileLRU[clientTile] // tile encodings: the connection's tile memory
}

// zlibResetter is the stdlib's resettable zlib reader (zlib.NewReader
// always returns it; the interface is split out for testability).
type zlibResetter interface {
	zlib.Resetter
	Read([]byte) (int, error)
	Close() error
}

// grow returns b with at least n capacity and length n.
func grow(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}
