package rfb

import (
	"sync"

	"uniint/internal/gfx"
	"uniint/internal/metrics"
)

// The tile tier turns cross-session redundancy into wire savings: a hub
// serving many near-identical homes renders the same button bodies and
// ticker labels over and over, and after the first session has paid the
// encode cost, every other session can ship an 8-byte tile id reference
// instead of pixels.
//
// Two structures cooperate, both addressed by gfx.Framebuffer.Key, the
// 128-bit content key:
//
//   - TileCache (process-wide, shared across sessions): content key →
//     encoded tile body, so the Nth session emitting an EncTileInstall for
//     a tile some other session already encoded reuses the bytes without
//     re-running the encoder. Dictionary-zlib bodies of larger rectangles
//     (a cold join's full frame) share it under their own key kind.
//     Bounded by a byte budget with LRU eviction.
//
//   - tileWindow (per session, inside WireState) mirrored by clientTiles
//     (per connection, inside decodeScratch): a bounded LRU over u64 tile
//     ids, taken from the keys, that both ends maintain with identical
//     operations driven by the in-order update stream. The server emits
//     EncTileRef only for an id its window holds under the same full key;
//     because the client applies the same insert/touch/evict sequence,
//     such an id is guaranteed to still be in the client's memory, holding
//     those pixels. The capacity is therefore a protocol constant:
//     changing it is a wire-protocol change.

// tileWindowCap is the mirrored per-session tile LRU capacity (in tiles).
// Protocol constant — see docs/WIRE.md. Sized above the distinct-tile
// working set of a busy control panel (~1.3k tiles for the 12-widget
// churn workload) so steady state is all references.
const tileWindowCap = 2048

// Tile eligibility bounds: rectangles beyond these are full-screen-ish
// repaints, whose decoded pixels would evict many small widget tiles from
// the client's fixed window. They repeat often across sessions (every cold
// join at one display state ships the same frame), so their dictionary-zlib
// bodies are memoised in the TileCache instead (WireState.encodeDict).
const (
	tileMaxArea   = 16384
	tileMaxHeight = 128
)

// DefaultTileCacheBudget is the default byte budget of a shared TileCache:
// encoded widget tiles are a few hundred bytes, so 64MB holds on the order
// of a hundred thousand distinct tiles.
const DefaultTileCacheBudget = 64 << 20

var (
	mTileCacheHits      = metrics.Default().Counter("rfb_tilecache_hits_total")
	mTileCacheMisses    = metrics.Default().Counter("rfb_tilecache_misses_total")
	mTileCacheEvictions = metrics.Default().Counter("rfb_tilecache_evictions_total")
	mTileCacheBytes     = metrics.Default().Gauge("rfb_tilecache_bytes")
	mTileCacheEntries   = metrics.Default().Gauge("rfb_tilecache_entries")

	mTileRefsSent     = metrics.Default().Counter("rfb_tilecache_refs_sent_total")
	mTileInstallsSent = metrics.Default().Counter("rfb_tilecache_installs_sent_total")
)

// tileKey addresses an encoded body: the 128-bit content key, the pixel
// format the body was encoded under (the same pixels serialize differently
// per format), and the wire form the body serves — EncTileInstall for a
// tile's inner body, EncZlibDict for a memoised dictionary-zlib body — so
// one content never answers for the other form. A dictionary body's key
// also holds the client's encoding choice (dictKey).
type tileKey struct {
	key    gfx.Key
	pf     gfx.PixelFormat
	kind   int32
	choice uint8
}

// tileEntry is one cached encoded body on the cache's intrusive LRU list.
type tileEntry struct {
	key        tileKey
	enc        int32  // inner encoding of the body
	body       []byte // encoded body, immutable once cached
	prev, next *tileEntry
}

// TileCache is the process-wide content-addressed store of encoded tile
// bodies, safe for concurrent use by every session of a hub. Bodies are
// immutable, so Get may return the slice itself without copying; Put
// copies its input.
type TileCache struct {
	mu      sync.Mutex
	entries map[tileKey]*tileEntry
	head    *tileEntry // most recently used
	tail    *tileEntry // least recently used
	bytes   int64
	budget  int64
}

// NewTileCache returns a cache bounded by budget bytes of encoded tile
// bodies; budget <= 0 selects DefaultTileCacheBudget.
func NewTileCache(budget int64) *TileCache {
	if budget <= 0 {
		budget = DefaultTileCacheBudget
	}
	return &TileCache{entries: map[tileKey]*tileEntry{}, budget: budget}
}

// Get returns the cached encoded body for key, marking it recently used.
// The returned slice is immutable shared storage — callers copy it into
// their output buffer and never write to it.
func (tc *TileCache) Get(key tileKey) (enc int32, body []byte, ok bool) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	e := tc.entries[key]
	if e == nil {
		mTileCacheMisses.Inc()
		return 0, nil, false
	}
	tc.moveToFront(e)
	mTileCacheHits.Inc()
	return e.enc, e.body, true
}

// Put caches an encoded body (copied) under key and evicts least-recently
// used entries until the byte budget holds. Re-putting an existing key
// refreshes its recency but keeps the first body.
func (tc *TileCache) Put(key tileKey, enc int32, body []byte) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if e := tc.entries[key]; e != nil {
		tc.moveToFront(e)
		return
	}
	e := &tileEntry{key: key, enc: enc, body: append([]byte(nil), body...)}
	tc.entries[key] = e
	tc.pushFront(e)
	tc.bytes += int64(len(e.body))
	for tc.bytes > tc.budget && tc.tail != nil && tc.tail != e {
		tc.evictLocked(tc.tail)
	}
	mTileCacheBytes.Set(tc.bytes)
	mTileCacheEntries.Set(int64(len(tc.entries)))
}

// Len returns the number of cached tiles.
func (tc *TileCache) Len() int {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return len(tc.entries)
}

// Bytes returns the cached body bytes currently held.
func (tc *TileCache) Bytes() int64 {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.bytes
}

func (tc *TileCache) evictLocked(e *tileEntry) {
	tc.unlink(e)
	delete(tc.entries, e.key)
	tc.bytes -= int64(len(e.body))
	mTileCacheEvictions.Inc()
}

func (tc *TileCache) pushFront(e *tileEntry) {
	e.prev = nil
	e.next = tc.head
	if tc.head != nil {
		tc.head.prev = e
	}
	tc.head = e
	if tc.tail == nil {
		tc.tail = e
	}
}

func (tc *TileCache) unlink(e *tileEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		tc.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		tc.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (tc *TileCache) moveToFront(e *tileEntry) {
	if tc.head == e {
		return
	}
	tc.unlink(e)
	tc.pushFront(e)
}

// tileIDMask takes a tile's u64 wire id from its 128-bit content key. The
// id is opaque to the client; a test narrows the mask to force different
// contents onto one id.
var tileIDMask = ^uint64(0)

func tileID(k gfx.Key) uint64 { return k[0] & tileIDMask }

// --- Server-side session window (keys only) -----------------------------

// twSlot is one node of the server window's intrusive LRU (index-linked,
// so the window is two allocations that grow with it).
type twSlot struct {
	key        gfx.Key
	prev, next int32 // slot indices; -1 terminates
}

// tileWindow is the server's model of the client's tile memory: an LRU of
// at most tileWindowCap tiles, mutated only by operations that are also
// encoded on the wire (install, ref) so both ends stay in lockstep. It
// indexes tiles by wire id and keeps each one's full content key, so an id
// held for other content is never referenced, only re-installed.
type tileWindow struct {
	slots []twSlot         // appended by install up to tileWindowCap
	index map[uint64]int32 // wire id → slot
	head  int32
	tail  int32
}

// init empties the window, keeping its storage. A window nothing was
// installed in since the last init costs nothing to re-init, so neither a
// new session nor a device switch that ships no tiles allocates.
func (w *tileWindow) init() {
	w.head, w.tail = -1, -1
	if len(w.slots) > 0 {
		clear(w.index)
		w.slots = w.slots[:0]
	}
}

// touch reports whether the tile keyed k is in the window, marking it most
// recently used. A true return licenses an EncTileRef of its id: the id is
// held under this very key, not merely under the same id.
func (w *tileWindow) touch(k gfx.Key) bool {
	i, ok := w.index[tileID(k)]
	if !ok || w.slots[i].key != k {
		return false
	}
	w.moveToFront(i)
	return true
}

// install records the tile keyed k as most recently used, evicting the
// least recently used tile when the window is full. An id already held is
// overwritten in place and moved to the front. Mirrors the client's
// handling of EncTileInstall.
func (w *tileWindow) install(k gfx.Key) {
	id := tileID(k)
	i, ok := w.index[id]
	switch {
	case ok:
		w.slots[i].key = k
		w.moveToFront(i)
		return
	case len(w.slots) < tileWindowCap:
		if w.index == nil {
			w.index = map[uint64]int32{}
		}
		i = int32(len(w.slots))
		w.slots = append(w.slots, twSlot{})
	default:
		i = w.tail
		w.unlink(i)
		delete(w.index, tileID(w.slots[i].key))
	}
	w.slots[i].key = k
	w.index[id] = i
	w.pushFront(i)
}

func (w *tileWindow) pushFront(i int32) {
	s := &w.slots[i]
	s.prev, s.next = -1, w.head
	if w.head >= 0 {
		w.slots[w.head].prev = i
	}
	w.head = i
	if w.tail < 0 {
		w.tail = i
	}
}

func (w *tileWindow) unlink(i int32) {
	s := &w.slots[i]
	if s.prev >= 0 {
		w.slots[s.prev].next = s.next
	} else {
		w.head = s.next
	}
	if s.next >= 0 {
		w.slots[s.next].prev = s.prev
	} else {
		w.tail = s.prev
	}
	s.prev, s.next = -1, -1
}

func (w *tileWindow) moveToFront(i int32) {
	if w.head == i {
		return
	}
	w.unlink(i)
	w.pushFront(i)
}

// --- Client-side tile memory (decoded pixels) ---------------------------

// ctEntry is one remembered tile: the decoded pixels plus geometry.
type ctEntry struct {
	id         uint64
	w, h       int
	pix        []gfx.Color // reused across evictions via grow-style resize
	prev, next *ctEntry
}

// clientTiles is the client's tile memory, the mirror of the server's
// tileWindow: same capacity, same LRU discipline, mutated by the decoded
// EncTileInstall/EncTileRef stream in the same order the server mutated
// its window, so every EncTileRef the server emits resolves here.
type clientTiles struct {
	entries map[uint64]*ctEntry
	head    *ctEntry
	tail    *ctEntry
}

// install remembers the pixels of fb inside r under id. Re-installing an
// existing id overwrites the remembered pixels and moves it to the front
// (the server re-installs after its window state was reset, or when the id
// is now another content's).
func (ct *clientTiles) install(id uint64, fb *gfx.Framebuffer, r gfx.Rect) {
	if ct.entries == nil {
		ct.entries = make(map[uint64]*ctEntry, tileWindowCap)
	}
	e := ct.entries[id]
	if e == nil {
		if len(ct.entries) >= tileWindowCap {
			// Evict LRU, reusing its node and pixel buffer.
			e = ct.tail
			ct.unlink(e)
			delete(ct.entries, e.id)
		} else {
			e = &ctEntry{}
		}
		e.id = id
		ct.entries[id] = e
		ct.pushFront(e)
	} else {
		ct.moveToFront(e)
	}
	e.w, e.h = r.W, r.H
	need := r.W * r.H
	if cap(e.pix) < need {
		e.pix = make([]gfx.Color, need)
	}
	e.pix = e.pix[:need]
	w := fb.W()
	pix := fb.Pix()
	for y := 0; y < r.H; y++ {
		copy(e.pix[y*r.W:(y+1)*r.W], pix[(r.Y+y)*w+r.X:(r.Y+y)*w+r.MaxX()])
	}
}

// replay paints the remembered tile for id into fb at r, marking it
// recently used. False means the id is unknown or the geometry differs —
// a protocol violation by the server.
func (ct *clientTiles) replay(id uint64, fb *gfx.Framebuffer, r gfx.Rect) bool {
	e := ct.entries[id]
	if e == nil || e.w != r.W || e.h != r.H {
		return false
	}
	ct.moveToFront(e)
	w := fb.W()
	pix := fb.Pix()
	for y := 0; y < r.H; y++ {
		copy(pix[(r.Y+y)*w+r.X:(r.Y+y)*w+r.MaxX()], e.pix[y*r.W:(y+1)*r.W])
	}
	return true
}

func (ct *clientTiles) pushFront(e *ctEntry) {
	e.prev, e.next = nil, ct.head
	if ct.head != nil {
		ct.head.prev = e
	}
	ct.head = e
	if ct.tail == nil {
		ct.tail = e
	}
}

func (ct *clientTiles) unlink(e *ctEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		ct.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		ct.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (ct *clientTiles) moveToFront(e *ctEntry) {
	if ct.head == e {
		return
	}
	ct.unlink(e)
	ct.pushFront(e)
}
