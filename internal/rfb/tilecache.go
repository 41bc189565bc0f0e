package rfb

import (
	"sync"

	"uniint/internal/gfx"
	"uniint/internal/metrics"
)

// The tile tier turns cross-session redundancy into wire savings: a hub
// serving many near-identical homes renders the same button bodies and
// ticker labels over and over, and after the first session has paid the
// encode cost, every other session can ship an 8-byte content-hash
// reference instead of pixels.
//
// Two structures cooperate:
//
//   - TileCache (process-wide, shared across sessions): content hash →
//     encoded tile body, so the Nth session emitting an EncTileInstall for
//     a tile some other session already encoded reuses the bytes without
//     re-running the encoder. Dictionary-zlib bodies of larger rectangles
//     (a cold join's full frame) share it under their own key kind.
//     Bounded by a byte budget with LRU eviction.
//
//   - tileWindow (per session, inside WireState) mirrored by clientTiles
//     (per connection, inside decodeScratch): a fixed-capacity LRU over
//     tile hashes that both ends maintain with identical operations driven
//     by the in-order update stream. The server emits EncTileRef only for
//     hashes still in its window; because the client applies the same
//     insert/touch/evict sequence, such hashes are guaranteed to still be
//     in the client's memory. The capacity is therefore a protocol
//     constant: changing it is a wire-protocol change.

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

// tileKey addresses an encoded body: the content hash, the pixel format
// the body was encoded under (the same pixels serialize differently per
// format), and the wire form the body serves — EncTileInstall for a tile's
// inner body, EncZlibDict for a memoised dictionary-zlib body — so one
// content never answers for the other form.
type tileKey struct {
	hash uint64
	pf   gfx.PixelFormat
	kind int32
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

// hashTile content-addresses the pixels of fb inside r with FNV-1a 64,
// mixing in the geometry so equal pixel sequences of different shapes
// collide no more than chance. At 64 bits the birthday collision odds for
// a hub-sized tile population (~10^5 tiles) are ~1e-9 — accepted and
// documented in docs/WIRE.md; a collision paints one stale widget body
// until its next content change.
func hashTile(fb *gfx.Framebuffer, r gfx.Rect) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h = (h ^ uint64(r.W)) * prime64
	h = (h ^ uint64(r.H)) * prime64
	w := fb.W()
	pix := fb.Pix()
	for y := r.Y; y < r.MaxY(); y++ {
		row := pix[y*w+r.X : y*w+r.MaxX()]
		for _, c := range row {
			h = (h ^ uint64(c)) * prime64
		}
	}
	return h
}

// --- Server-side session window (hashes only) ---------------------------

// twSlot is one node of the server window's intrusive LRU (index-linked so
// the whole window is two allocations, made once per session).
type twSlot struct {
	hash       uint64
	prev, next int32 // slot indices; -1 terminates
}

// tileWindow is the server's model of the client's tile memory: a
// fixed-capacity LRU over hashes, mutated only by operations that are also
// encoded on the wire (install, ref) so both ends stay in lockstep.
type tileWindow struct {
	slots []twSlot
	index map[uint64]int32
	head  int32
	tail  int32
	free  int32 // head of the free slot list (linked through next)
}

// init empties the window. A window nothing was installed in since the last
// init is already empty (installs only ever take slots), so a device switch
// that ships no tiles re-inits for free.
func (w *tileWindow) init() {
	if w.slots == nil {
		w.slots = make([]twSlot, tileWindowCap)
		w.index = make(map[uint64]int32, tileWindowCap)
	} else if w.head < 0 {
		return
	}
	clear(w.index)
	w.head, w.tail = -1, -1
	for i := range w.slots {
		w.slots[i].next = int32(i + 1)
	}
	w.slots[len(w.slots)-1].next = -1
	w.free = 0
}

// touch reports whether h is in the window, marking it most recently used.
// A true return licenses an EncTileRef for h.
func (w *tileWindow) touch(h uint64) bool {
	i, ok := w.index[h]
	if !ok {
		return false
	}
	w.moveToFront(i)
	return true
}

// install records h as most recently used, evicting the least recently
// used hash when the window is full. Mirrors the client's handling of
// EncTileInstall.
func (w *tileWindow) install(h uint64) {
	if i, ok := w.index[h]; ok {
		w.moveToFront(i)
		return
	}
	var i int32
	if w.free >= 0 {
		i = w.free
		w.free = w.slots[i].next
	} else {
		i = w.tail
		w.unlink(i)
		delete(w.index, w.slots[i].hash)
	}
	w.slots[i].hash = h
	w.index[h] = i
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
	hash       uint64
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

// install remembers the pixels of fb inside r under hash. Re-installing an
// existing hash overwrites the remembered pixels (the server re-installs
// after its window state was reset).
func (ct *clientTiles) install(hash uint64, fb *gfx.Framebuffer, r gfx.Rect) {
	if ct.entries == nil {
		ct.entries = make(map[uint64]*ctEntry, tileWindowCap)
	}
	e := ct.entries[hash]
	if e == nil {
		if len(ct.entries) >= tileWindowCap {
			// Evict LRU, reusing its node and pixel buffer.
			e = ct.tail
			ct.unlink(e)
			delete(ct.entries, e.hash)
		} else {
			e = &ctEntry{}
		}
		e.hash = hash
		ct.entries[hash] = e
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

// replay paints the remembered tile for hash into fb at r, marking it
// recently used. False means the hash is unknown or the geometry differs —
// a protocol violation by the server.
func (ct *clientTiles) replay(hash uint64, fb *gfx.Framebuffer, r gfx.Rect) bool {
	e := ct.entries[hash]
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
