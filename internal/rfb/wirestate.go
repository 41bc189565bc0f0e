package rfb

import (
	"uniint/internal/gfx"
	"uniint/internal/metrics"
)

// WireState is the server's per-session model of what the client currently
// holds: a shadow of the client's framebuffer (for CopyRect detection) and
// a mirror of the client's tile memory (for EncTileRef). PrepareUpdateWire
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
	shadow *gfx.Framebuffer
	valid  bool // shadow == client framebuffer
	win    tileWindow
	cache  *TileCache // shared across sessions; may be nil
	pf     gfx.PixelFormat
	pfSet  bool
}

// NewWireState creates the wire model for a session whose client
// framebuffer is w×h. cache is the hub-wide shared tile store (nil for a
// standalone session: tile encodings still work, bodies are just never
// shared across sessions). A fresh client framebuffer is zero-filled
// (black), exactly like the fresh shadow, so the model starts valid.
func NewWireState(cache *TileCache, w, h int) *WireState {
	ws := &WireState{shadow: gfx.NewFramebuffer(w, h), valid: true, cache: cache}
	ws.win.init()
	return ws
}

// Reset discards every assumption about the client: the tile window is
// cleared (subsequent tiles re-install) and the shadow is distrusted until
// a rectangle covering the full framebuffer ships again (no CopyRect until
// then). Nothing reads a distrusted shadow, and the revalidating repaint
// overwrites every pixel of it.
func (ws *WireState) Reset() {
	ws.valid = false
	ws.win.init()
	ws.pfSet = false
}

// CopyRect detection constants. The search covers small displacements on
// one axis at a time — the scroll/move patterns a widget toolkit actually
// produces — and only for rectangles big enough that the 4-byte CopyRect
// body beats re-encoding by a useful margin.
const (
	copyMinArea    = 1024
	copySearchSpan = 32 // max |offset| tried per axis, in pixels
	copyProbeWidth = 32 // pixels compared per probe row before full verify
)

var (
	mCopyHits        = metrics.Default().Counter("rfb_copyrect_hits_total")
	mCopyProbePixels = metrics.Default().Counter("rfb_copyrect_probe_pixels_total")
	mDictPicks       = metrics.Default().Counter("rfb_dict_picks_total")
)

// zlibDictMinArea gates the hextile→zlib-dict upgrade: below it the zlib
// stream overhead (header + FDICT id + flush) eats the dictionary's gain.
const zlibDictMinArea = 4096

// selectAndEncode resolves one EncAdaptive rectangle against the wire
// model and appends its encoded body to dst, returning the chosen
// encoding. It tries, in order of bytes saved: CopyRect off the shadow
// (4-byte body), a tile reference (8-byte body), a tile install (shared
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
	inShadow := !r.Empty() && r.X >= 0 && r.Y >= 0 &&
		r.MaxX() <= ws.shadow.W() && r.MaxY() <= ws.shadow.H()

	if mask&encBitCopyRect != 0 && ws.valid && inShadow && r.Area() >= copyMinArea {
		if sx, sy, ok := ws.findCopy(fb, r); ok {
			ur.CopySrcX, ur.CopySrcY = sx, sy
			var b [4]byte
			be.PutUint16(b[0:], uint16(sx))
			be.PutUint16(b[2:], uint16(sy))
			mCopyHits.Inc()
			return append(dst, b[:]...), EncCopyRect, nil
		}
	}

	const tileBits = encBitTileRef | encBitTileInstall
	if mask&tileBits == tileBits && inShadow &&
		r.Area() <= tileMaxArea && r.H <= tileMaxHeight {
		h := hashTile(fb, r)
		if ws.win.touch(h) {
			var b [8]byte
			be.PutUint64(b[:], h)
			mTileRefsSent.Inc()
			return append(dst, b[:]...), EncTileRef, nil
		}
		dst, err := ws.encodeInstall(dst, fb, r, h, pf, mask, sc)
		if err != nil {
			return nil, 0, err
		}
		ws.win.install(h)
		mTileInstallsSent.Inc()
		return dst, EncTileInstall, nil
	}

	enc := chooseEncoding(fb, r, mask, fallback, sc)
	if mask&encBitZlibDict != 0 && r.Area() >= zlibDictMinArea &&
		(enc == EncHextile || enc == EncZlib) {
		enc = EncZlibDict
		mDictPicks.Inc()
	}
	dst, err := encodeRect(dst, enc, fb, r, pf, sc)
	return dst, enc, err
}

// encodeInstall appends an EncTileInstall body: the content hash, the
// inner encoding id, and the inner body — taken from the shared cache when
// another session (or an earlier window generation) already encoded this
// tile, freshly encoded and published to the cache otherwise.
func (ws *WireState) encodeInstall(dst []byte, fb *gfx.Framebuffer, r gfx.Rect, h uint64, pf gfx.PixelFormat, mask uint8, sc *encodeScratch) ([]byte, error) {
	var hb [8]byte
	be.PutUint64(hb[:], h)
	key := tileKey{hash: h, pf: pf}
	if ws.cache != nil {
		if enc, body, ok := ws.cache.Get(key); ok {
			dst = append(dst, hb[:]...)
			var eb [4]byte
			be.PutUint32(eb[:], uint32(enc))
			dst = append(dst, eb[:]...)
			return append(dst, body...), nil
		}
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
	dst = append(dst, hb[:]...)
	var eb [4]byte
	be.PutUint32(eb[:], uint32(inner))
	dst = append(dst, eb[:]...)
	bodyStart := len(dst)
	dst, err := encodeRect(dst, inner, fb, r, pf, sc)
	if err != nil {
		return nil, err
	}
	if ws.cache != nil {
		ws.cache.Put(key, inner, dst[bodyStart:])
	}
	return dst, nil
}

// findCopy searches the shadow for existing client pixels equal to the new
// content of r, returning the source origin on a hit. Offset (0,0) is
// tried first — content that did not actually change (over-wide damage
// coalescing) degenerates to a 4-byte self-copy. The source rectangle must
// lie fully inside the shadow: partially-visible source pixels are
// unknowable client state and are never referenced.
func (ws *WireState) findCopy(fb *gfx.Framebuffer, r gfx.Rect) (sx, sy int, ok bool) {
	if ws.matchesShadow(fb, r, r.X, r.Y) {
		return r.X, r.Y, true
	}
	for d := 1; d <= copySearchSpan; d++ {
		for _, off := range [4][2]int{{0, -d}, {0, d}, {-d, 0}, {d, 0}} {
			sx, sy := r.X+off[0], r.Y+off[1]
			if sx < 0 || sy < 0 || sx+r.W > ws.shadow.W() || sy+r.H > ws.shadow.H() {
				continue
			}
			if ws.matchesShadow(fb, r, sx, sy) {
				return sx, sy, true
			}
		}
	}
	return 0, 0, false
}

// matchesShadow reports whether the shadow pixels at (sx,sy) equal fb's
// pixels inside r. Three bounded probe rows reject non-matches almost
// free; only candidates passing the probe pay a full verify.
func (ws *WireState) matchesShadow(fb *gfx.Framebuffer, r gfx.Rect, sx, sy int) bool {
	pw := min(r.W, copyProbeWidth)
	probeRows := [3]int{0, r.H / 2, r.H - 1}
	probed := 0
	for _, py := range probeRows {
		if !ws.rowsEqual(fb, r, sx, sy, py, pw) {
			mCopyProbePixels.Add(int64(probed + pw))
			return false
		}
		probed += pw
	}
	mCopyProbePixels.Add(int64(probed))
	for y := 0; y < r.H; y++ {
		if !ws.rowsEqual(fb, r, sx, sy, y, r.W) {
			return false
		}
	}
	return true
}

// rowsEqual compares the first w pixels of row y (rect-local) of fb's r
// against the shadow row at (sx, sy+y).
func (ws *WireState) rowsEqual(fb *gfx.Framebuffer, r gfx.Rect, sx, sy, y, w int) bool {
	frow := fb.Pix()[(r.Y+y)*fb.W()+r.X : (r.Y+y)*fb.W()+r.X+w]
	srow := ws.shadow.Pix()[(sy+y)*ws.shadow.W()+sx : (sy+y)*ws.shadow.W()+sx+w]
	for i, c := range frow {
		if srow[i] != c {
			return false
		}
	}
	return true
}

// commit applies one encoded rectangle to the shadow, mirroring what the
// client's decode will do: CopyRect moves shadow pixels, everything else
// blits the freshly-encoded framebuffer content. A rectangle covering the
// full framebuffer revalidates a distrusted shadow — after it, the client
// provably holds exactly the shadow again.
func (ws *WireState) commit(fb *gfx.Framebuffer, ur *UpdateRect) {
	r := ur.Rect
	if ur.Encoding == EncCopyRect {
		ws.shadow.CopyRect(r.X, r.Y, gfx.R(ur.CopySrcX, ur.CopySrcY, r.W, r.H))
		return
	}
	if fb == nil {
		return
	}
	ws.shadow.Blit(r.X, r.Y, fb, r)
	if !ws.valid && r.X <= 0 && r.Y <= 0 &&
		r.MaxX() >= ws.shadow.W() && r.MaxY() >= ws.shadow.H() {
		ws.valid = true
	}
}
