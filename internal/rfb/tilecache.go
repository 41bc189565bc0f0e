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
//   - TileCache (one per server, or one a hub shares across its homes):
//     content key → encoded tile body, so the Nth session emitting an
//     EncTileInstall for a tile some other session already encoded reuses
//     the bytes without re-running the encoder. Dictionary-zlib bodies of larger rectangles
//     (a cold join's full frame) share it under their own key kind.
//     Bounded by a byte budget with LRU eviction.
//
//   - tileLRU (the tile window): a bounded LRU over u64 tile ids, taken
//     from the keys, that both ends run, one type with a payload per slot
//     — the full content key in the server's WireState, the decoded pixels
//     in the client's decodeScratch — driven by the in-order update
//     stream. The server emits EncTileRef only for an id its window holds
//     under the same full key; because the client applies the same
//     put/get/evict sequence to the same type, such an id is guaranteed to
//     still be in the client's memory, holding those pixels. The capacity
//     is therefore a protocol constant: changing it is a wire-protocol
//     change.

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

// TileCache is a content-addressed store of encoded tile bodies, safe for
// concurrent use by every session that shares it: a server's, or every
// home's of a hub. Bodies are immutable, so Get may return the slice
// itself without copying; Put copies its input.
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

// --- The tile window ----------------------------------------------------

// tileLRU is the tile window both ends run: an LRU of at most
// tileWindowCap tiles keyed by u64 wire id, with a payload per slot. The
// server's WireState holds one over full content keys, the model of the
// client's tile memory; the client's decodeScratch holds one over decoded
// pixels. Both are mutated only by the install/ref stream, in the same
// order, so they evict alike: a ref the server emits for an id it holds
// names an id the client holds, with those pixels. Index-linked, so a
// window is two allocations that grow with it. The zero value is an empty
// window.
type tileLRU[P any] struct {
	slots []lruSlot[P]     // appended by put up to tileWindowCap
	index map[uint64]int32 // wire id → slot
	head  int32            // most recently used; -1 when empty, unset until index is made
	tail  int32            // least recently used; likewise
}

type lruSlot[P any] struct {
	id         uint64
	val        P
	prev, next int32 // slot indices; -1 terminates
}

// init empties the window, keeping its storage. A window nothing was put
// in since the last init costs nothing to re-init, so a device switch that
// ships no tiles allocates nothing.
func (l *tileLRU[P]) init() {
	l.head, l.tail = -1, -1
	if len(l.slots) > 0 {
		clear(l.index)
		l.slots = l.slots[:0]
	}
}

// get returns the payload held under id, marking it most recently used, or
// nil. A caller that finds the payload is not the one it wants either puts
// id at once (the server re-installs) or fails the stream (the client), so
// the touch never makes the two ends differ.
func (l *tileLRU[P]) get(id uint64) *P {
	i, ok := l.index[id]
	if !ok {
		return nil
	}
	l.moveToFront(i)
	return &l.slots[i].val
}

// put returns the payload slot for id as most recently used: the one
// already held under id, a new one, or, in a full window, the least
// recently used one's, whose payload stays for the caller to overwrite
// (the client reuses its pixel buffer).
func (l *tileLRU[P]) put(id uint64) *P {
	i, ok := l.index[id]
	switch {
	case ok:
		l.moveToFront(i)
		return &l.slots[i].val
	case len(l.slots) < tileWindowCap:
		if l.index == nil {
			l.index = map[uint64]int32{}
			l.head, l.tail = -1, -1
		}
		i = int32(len(l.slots))
		l.slots = append(l.slots, lruSlot[P]{})
	default:
		i = l.tail
		l.unlink(i)
		delete(l.index, l.slots[i].id)
	}
	l.slots[i].id = id
	l.index[id] = i
	l.pushFront(i)
	return &l.slots[i].val
}

func (l *tileLRU[P]) pushFront(i int32) {
	s := &l.slots[i]
	s.prev, s.next = -1, l.head
	if l.head >= 0 {
		l.slots[l.head].prev = i
	}
	l.head = i
	if l.tail < 0 {
		l.tail = i
	}
}

func (l *tileLRU[P]) unlink(i int32) {
	s := &l.slots[i]
	if s.prev >= 0 {
		l.slots[s.prev].next = s.next
	} else {
		l.head = s.next
	}
	if s.next >= 0 {
		l.slots[s.next].prev = s.prev
	} else {
		l.tail = s.prev
	}
	s.prev, s.next = -1, -1
}

func (l *tileLRU[P]) moveToFront(i int32) {
	if l.head == i {
		return
	}
	l.unlink(i)
	l.pushFront(i)
}
