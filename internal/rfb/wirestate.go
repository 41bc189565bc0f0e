package rfb

import (
	"uniint/internal/gfx"
	"uniint/internal/metrics"
)

// WireState is the server's per-session model of what the client currently
// holds: the frame and generation the client last received in full (so a
// repaint of an unchanged frame, a device switch's, ships as a self-copy
// without reading pixels) and a mirror of the client's tile memory (for
// EncTileRef). It keeps no copy of the client's pixels. PrepareUpdateWire
// consults it to pick the cheapest wire form of each rectangle and commits
// every encoded rectangle into it, keeping the model exact as long as the
// prepared updates are sent in order.
//
// A WireState belongs to one session and is not safe for concurrent use;
// the session's writer goroutine owns it. It does not survive a detach: a
// resumed session starts a fresh one and Resets it (the reconnecting
// client has a fresh tile memory and pixels the server cannot know). Reset
// must also be called whenever the client's actual state diverges from
// the model: after an encode error, and after a failed send.
type WireState struct {
	w, h int
	// The client holds synced, inside w×h, as it stood at generation
	// syncGen (nil: no frame the model knows of). While synced has not
	// been written since, nothing changed under the client, and any
	// rectangle of it is a self-copy.
	synced  *gfx.Framebuffer
	syncGen uint64
	win     tileLRU[gfx.Key] // the client's tile memory, by full content key
	cache   *TileCache       // the server's, or shared by a hub's homes
	pf      gfx.PixelFormat
	pfSet   bool
}

// NewWireState creates the wire model for a session whose client
// framebuffer is w×h. cache is the tile store its encoded bodies are
// shared through, and must not be nil: its server's own, or the one a hub
// shares across its homes. The model starts synced to no frame, so no
// CopyRect ships before the first full-bounds rectangle.
func NewWireState(cache *TileCache, w, h int) *WireState {
	return &WireState{w: w, h: h, cache: cache}
}

// Reset discards every assumption about the client: the tile window is
// cleared (subsequent tiles re-install) and the model is synced to no
// frame until a rectangle covering the full framebuffer ships again (no
// CopyRect until then).
func (ws *WireState) Reset() {
	ws.synced = nil
	ws.win.init()
	ws.pfSet = false
}

// copyMinArea is the smallest rectangle shipped as a self-copy: below it
// the 4-byte CopyRect body beats re-encoding by too little to matter.
const copyMinArea = 1024

// rfb_copyrect_unchanged_total counts the self-copies: rectangles of a
// frame nobody wrote since the client last received it in full.
// rfb_dict_picks_total counts the rectangles upgraded to dictionary zlib,
// and rfb_dict_memo_hits_total those whose body the shared memo answered.
// A banded full-bounds repaint counts each band, so picks minus hits is
// the number of bands deflated.
var (
	mCopyUnchanged = metrics.Default().Counter("rfb_copyrect_unchanged_total")
	mDictPicks     = metrics.Default().Counter("rfb_dict_picks_total")
	mDictMemoHits  = metrics.Default().Counter("rfb_dict_memo_hits_total")
)

// zlibDictMinArea gates the hextile→zlib-dict upgrade: below it the zlib
// stream overhead (header + FDICT id + flush) eats the dictionary's gain.
const zlibDictMinArea = 4096

// selectAndEncode resolves one EncAdaptive rectangle against the wire
// model and appends its encoded body to dst, returning the chosen
// encoding. It tries, in order of bytes saved: a self-copy of an unchanged
// frame (4-byte body), a tile reference (8-byte body), a tile install (shared
// encoded body reused across sessions), then the content-adaptive
// encodings with a dictionary-zlib upgrade for large GUI-like rects. ur's
// CopySrc fields are filled when EncCopyRect is chosen. The caller commits
// the rectangle afterwards (commit).
func (ws *WireState) selectAndEncode(dst []byte, fb *gfx.Framebuffer, ur *UpdateRect, pf gfx.PixelFormat, mask uint8, fallback int32, sc *encodeScratch) ([]byte, int32, error) {
	if !ws.pfSet || ws.pf != pf {
		// Tiles installed under another format decode to different client
		// pixels; drop the window so everything re-installs under pf.
		ws.win.init()
		ws.pf, ws.pfSet = pf, true
	}
	r := ur.Rect
	inside := !r.Empty() && r.X >= 0 && r.Y >= 0 &&
		r.MaxX() <= ws.w && r.MaxY() <= ws.h

	if mask&encBitCopyRect != 0 && inside && r.Area() >= copyMinArea && ws.unchanged(fb) {
		mCopyUnchanged.Inc()
		ur.CopySrcX, ur.CopySrcY = r.X, r.Y
		var b [4]byte
		be.PutUint16(b[0:], uint16(r.X))
		be.PutUint16(b[2:], uint16(r.Y))
		return append(dst, b[:]...), EncCopyRect, nil
	}

	const tileBits = encBitTileRef | encBitTileInstall
	if mask&tileBits == tileBits && inside &&
		r.Area() <= tileMaxArea && r.H <= tileMaxHeight {
		k := fb.Key(r)
		// A held id is referenced only while it holds this very content:
		// an id held for another content is re-installed.
		if held := ws.win.get(tileID(k)); held != nil && *held == k {
			var b [8]byte
			be.PutUint64(b[:], tileID(k))
			mTileRefsSent.Inc()
			return append(dst, b[:]...), EncTileRef, nil
		}
		dst, err := ws.encodeInstall(dst, fb, r, k, pf, mask, sc)
		if err != nil {
			return nil, 0, err
		}
		*ws.win.put(tileID(k)) = k
		mTileInstallsSent.Inc()
		return dst, EncTileInstall, nil
	}

	dictable := mask&encBitZlibDict != 0 && r.Area() >= zlibDictMinArea
	var key tileKey
	if dictable && r.X == 0 && r.W == fb.W() {
		// A full-width band is keyed from the frame's row memo, far cheaper
		// than the probe, so the memo is asked first; a narrower rectangle
		// is keyed only once the probe picked the dictionary.
		key = dictKey(fb, r, pf, mask, fallback)
		if body, ok := ws.memo(key); ok {
			mDictPicks.Inc()
			return append(dst, body...), EncZlibDict, nil
		}
	}
	enc := chooseEncoding(fb, r, mask, fallback, sc)
	if dictable && (enc == EncHextile || enc == EncZlib) {
		mDictPicks.Inc()
		dst, err := ws.encodeDict(dst, fb, r, pf, key, mask, fallback, sc)
		return dst, EncZlibDict, err
	}
	dst, err := encodeRect(dst, enc, fb, r, pf, sc)
	return dst, enc, err
}

// dictKey is the memo key of r's dictionary-zlib body. Besides the content
// and the pixel format it holds what chooseEncoding reads other than the
// pixels: the client's raw, RRE and hextile bits, and whether its fallback
// is one the dictionary upgrades. The same content under the same choice
// probes to the same pick, so a memo hit is a body the probe would also
// have sent to the dictionary.
func dictKey(fb *gfx.Framebuffer, r gfx.Rect, pf gfx.PixelFormat, mask uint8, fallback int32) tileKey {
	choice := mask & (encBitRaw | encBitRRE | encBitHextile)
	if fallback == EncHextile || fallback == EncZlib {
		choice |= encBitZlibDict
	}
	return tileKey{key: fb.Key(r), pf: pf, kind: EncZlibDict, choice: choice}
}

// memo returns the memoised dictionary-zlib body for key, counting a hit.
func (ws *WireState) memo(key tileKey) ([]byte, bool) {
	_, body, ok := ws.cache.Get(key)
	if ok {
		mDictMemoHits.Inc()
	}
	return body, ok
}

// encodeDict appends an EncZlibDict body, deflating each distinct content
// once per shared cache: a cold join ships the bands of an earlier join at
// the same display state, or at one a focus move away, and compress/flate
// is deterministic in its input, level and dictionary, so the memoised
// body is byte-identical to a fresh encode. key is r's memo key when
// selectAndEncode already asked the memo (and missed), zero otherwise.
func (ws *WireState) encodeDict(dst []byte, fb *gfx.Framebuffer, r gfx.Rect, pf gfx.PixelFormat, key tileKey, mask uint8, fallback int32, sc *encodeScratch) ([]byte, error) {
	if key.kind == 0 {
		key = dictKey(fb, r, pf, mask, fallback)
		if body, ok := ws.memo(key); ok {
			return append(dst, body...), nil
		}
	}
	start := len(dst)
	dst, err := encodeZlibDict(dst, fb, r, pf, sc)
	if err == nil {
		ws.cache.Put(key, EncZlibDict, dst[start:])
	}
	return dst, err
}

// encodeInstall appends an EncTileInstall body: the tile id of key k, the
// inner encoding id, and the inner body — taken from the shared cache when
// another session (or an earlier window generation) already encoded this
// tile, freshly encoded and published to the cache otherwise.
func (ws *WireState) encodeInstall(dst []byte, fb *gfx.Framebuffer, r gfx.Rect, k gfx.Key, pf gfx.PixelFormat, mask uint8, sc *encodeScratch) ([]byte, error) {
	var hdr [12]byte // tile id, inner encoding id
	be.PutUint64(hdr[:], tileID(k))
	key := tileKey{key: k, pf: pf, kind: EncTileInstall}
	if enc, body, ok := ws.cache.Get(key); ok {
		be.PutUint32(hdr[8:], uint32(enc))
		return append(append(dst, hdr[:]...), body...), nil
	}
	// Inner bodies stick to the unconditionally-decodable encodings so a
	// cached body never depends on optional capabilities; advertising
	// EncTileInstall implies decoding raw/RRE/hextile inner bodies.
	inner := chooseEncoding(fb, r, mask&(encBitRaw|encBitRRE|encBitHextile), EncRaw, sc)
	switch inner {
	case EncRaw, EncRRE, EncHextile:
	default:
		inner = EncRaw
	}
	be.PutUint32(hdr[8:], uint32(inner))
	dst = append(dst, hdr[:]...)
	bodyStart := len(dst)
	dst, err := encodeRect(dst, inner, fb, r, pf, sc)
	if err != nil {
		return nil, err
	}
	ws.cache.Put(key, inner, dst[bodyStart:])
	return dst, nil
}

// unchanged reports whether the client holds fb as it stands: nobody wrote
// it since it last shipped in full.
func (ws *WireState) unchanged(fb *gfx.Framebuffer) bool {
	return ws.synced == fb && ws.syncGen == fb.Gen()
}

// bandRows is the height of the bands a full-bounds repaint ships as. A
// focus move changes one to three of a 640×480 panel's eight bands, so a
// new display state deflates those and the shared memo answers the rest.
// Each band is its own zlib stream, so thinner bands cost bytes
// (docs/PERF.md).
const bandRows = 64

// banded reports whether the EncAdaptive rectangle r of fb ships as
// bandRows-row bands (PreparedUpdate.encodeBands): a full-bounds repaint
// taller than one band that is not a self-copy, to a client that decodes
// dictionary zlib. The memo holds only dictionary-zlib bodies, so for any
// other client bands gain nothing.
func (ws *WireState) banded(fb *gfx.Framebuffer, r gfx.Rect, mask uint8) bool {
	return mask&encBitZlibDict != 0 && r.H > bandRows && ws.full(r) &&
		!(mask&encBitCopyRect != 0 && ws.unchanged(fb))
}

// full reports whether r covers the client's whole framebuffer.
func (ws *WireState) full(r gfx.Rect) bool {
	return r.X <= 0 && r.Y <= 0 && r.MaxX() >= ws.w && r.MaxY() >= ws.h
}

// commit applies one encoded rectangle to the model, mirroring what the
// client's decode does to its pixels. A full-bounds blit leaves the client
// holding fb at its current generation. A partial blit from another frame
// ends that, and so does a displaced copy, which moves the client's pixels
// while the frame stands still. A self-copy changes nothing.
func (ws *WireState) commit(fb *gfx.Framebuffer, ur *UpdateRect) {
	r := ur.Rect
	switch {
	case ur.Encoding == EncCopyRect:
		if ur.CopySrcX != r.X || ur.CopySrcY != r.Y {
			ws.synced = nil
		}
	case ws.full(r):
		ws.synced, ws.syncGen = fb, fb.Gen()
	case fb != ws.synced:
		ws.synced = nil
	}
}
