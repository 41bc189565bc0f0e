package rfb

import (
	"fmt"
	"time"

	"uniint/internal/gfx"
)

// Session migration record. Federation ships a parked session between
// hub nodes as one self-contained byte blob: everything the detach lot
// holds for an absent client — the resume token, accumulated damage, the
// pointer mask, and the queued-but-undispatched input — in a versioned
// big-endian layout (documented in docs/WIRE.md). The layout also has
// room for a parked update request, a pixel format and a compressed
// shadow framebuffer; uniserver writes none of them and ignores them on
// import, and the codec keeps parsing and bounds-checking them because
// UNIMIG/1 does.

// Migration record framing constants (layout in docs/WIRE.md).
const (
	// MigMagic opens every migration record: version bumps change the magic.
	MigMagic = "UNIMIG/1"
	// MigFlagPending marks a parked update request present in the record.
	MigFlagPending = 1 << 0
	// MigFlagPF marks a client-negotiated pixel format (PFSet).
	MigFlagPF = 1 << 1
	// MigFlagIncremental carries the parked request's incremental bit.
	MigFlagIncremental = 1 << 2
	// MigFlagDict marks the shadow stream as compressed against the PF32
	// preset dictionary (PackedShadow's dict bit).
	MigFlagDict = 1 << 3
	// MigFlagShadow marks a shadow framebuffer stream present.
	MigFlagShadow = 1 << 4
	// MigEventKey tags a queued key event (payload: down u8, keysym u32).
	MigEventKey = 1
	// MigEventPointer tags a queued pointer click/press event
	// (payload: buttons u8, x u16, y u16).
	MigEventPointer = 2
	// MigEventMove tags a queued pointer move event (same payload as
	// MigEventPointer; moves are coalescable, clicks are not).
	MigEventMove = 3
)

// MigEvent is one queued input event inside a migration record — the
// session-independent core of the lot's input queue (enqueue timestamps
// and trace ids are node-local and reset on import).
type MigEvent struct {
	// Pointer selects which payload is live: Ptr when true, Key when false.
	Pointer bool
	// Move marks a coalescable pointer move (meaningful when Pointer).
	Move bool
	// Key is the key event payload.
	Key KeyEvent
	// Ptr is the pointer event payload.
	Ptr PointerEvent
}

// MigrationRecord is one parked session in portable form.
type MigrationRecord struct {
	// Token is the session resume token the client will redial with.
	Token string
	// W, H are the session geometry (resume requires a geometry match).
	W, H int
	// PF is the client-negotiated pixel format; meaningful when PFSet.
	PF    gfx.PixelFormat
	PFSet bool
	// Shadow is a compressed shadow framebuffer stream. uniserver exports
	// none (a parked session keeps no pixels: its resume repaints onto a
	// distrusted model) and ignores one from an older peer; the codec keeps
	// the field because the UNIMIG/1 layout does.
	Shadow *PackedShadow
	// Dirty is the damage accumulated while parked.
	Dirty []gfx.Rect
	// Pending is the update request the client parked with; meaningful
	// when HasPending. uniserver exports none (a request is owed on the
	// connection it arrived on, so a resume ships in answer to the new
	// connection's own) and ignores one from an older peer; the codec keeps
	// the field because the UNIMIG/1 layout does.
	Pending    UpdateRequest
	HasPending bool
	// Events is the queued-but-undispatched input.
	Events []MigEvent
	// LastPtrMask is the last dispatched pointer button mask (move
	// coalescing state).
	LastPtrMask uint8
	// RemainingTTL is how much park time the session had left on the
	// source node; the target arms its lot deadline with it so migration
	// never extends a session's life.
	RemainingTTL time.Duration
	// DetachedFor is how long the session had already been parked, so
	// the target's detach-duration accounting stays truthful.
	DetachedFor time.Duration
}

func appendU16(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }
func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// clampMS converts a duration to whole milliseconds clamped to u32 —
// park TTLs are tens of seconds, so the clamp is purely defensive.
func clampMS(d time.Duration) uint32 {
	ms := d.Milliseconds()
	if ms < 0 {
		return 0
	}
	if ms > int64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(ms)
}

// Encode serializes the record (layout in docs/WIRE.md).
func (m *MigrationRecord) Encode() ([]byte, error) {
	if len(m.Token) == 0 || len(m.Token) > MaxTokenLen {
		return nil, fmt.Errorf("rfb: migration record: bad token length %d", len(m.Token))
	}
	if m.W < 0 || m.W > 0xffff || m.H < 0 || m.H > 0xffff {
		return nil, fmt.Errorf("rfb: migration record: bad geometry %dx%d", m.W, m.H)
	}
	if len(m.Dirty) > 0xffff || len(m.Events) > 0xffff {
		return nil, fmt.Errorf("rfb: migration record: too much parked state (%d rects, %d events)",
			len(m.Dirty), len(m.Events))
	}
	var flags byte
	if m.HasPending {
		flags |= MigFlagPending
	}
	if m.PFSet {
		flags |= MigFlagPF
	}
	if m.HasPending && m.Pending.Incremental {
		flags |= MigFlagIncremental
	}
	if m.Shadow != nil {
		flags |= MigFlagShadow
		if m.Shadow.dict {
			flags |= MigFlagDict
		}
	}
	size := len(MigMagic) + 3 + len(m.Token) + 4 + 16 + 8 + 8 +
		2 + 8*len(m.Dirty) + 2 + 6*len(m.Events)
	if m.Shadow != nil {
		size += 8 + len(m.Shadow.comp)
	}
	b := make([]byte, 0, size)
	b = append(b, MigMagic...)
	b = append(b, flags, m.LastPtrMask, byte(len(m.Token)))
	b = append(b, m.Token...)
	b = appendU16(b, uint16(m.W))
	b = appendU16(b, uint16(m.H))
	var pfb [16]byte
	pfb[0] = m.PF.BitsPerPixel
	pfb[1] = m.PF.Depth
	if m.PF.BigEndian {
		pfb[2] = 1
	}
	if m.PF.TrueColor {
		pfb[3] = 1
	}
	be.PutUint16(pfb[4:], m.PF.RedMax)
	be.PutUint16(pfb[6:], m.PF.GreenMax)
	be.PutUint16(pfb[8:], m.PF.BlueMax)
	pfb[10], pfb[11], pfb[12] = m.PF.RedShift, m.PF.GreenShift, m.PF.BlueShift
	b = append(b, pfb[:]...)
	b = appendU32(b, clampMS(m.RemainingTTL))
	b = appendU32(b, clampMS(m.DetachedFor))
	r := m.Pending.Region
	b = appendU16(b, uint16(r.X))
	b = appendU16(b, uint16(r.Y))
	b = appendU16(b, uint16(r.W))
	b = appendU16(b, uint16(r.H))
	b = appendU16(b, uint16(len(m.Dirty)))
	for _, d := range m.Dirty {
		b = appendU16(b, uint16(d.X))
		b = appendU16(b, uint16(d.Y))
		b = appendU16(b, uint16(d.W))
		b = appendU16(b, uint16(d.H))
	}
	b = appendU16(b, uint16(len(m.Events)))
	for _, ev := range m.Events {
		if ev.Pointer {
			kind := byte(MigEventPointer)
			if ev.Move {
				kind = MigEventMove
			}
			b = append(b, kind, ev.Ptr.Buttons)
			b = appendU16(b, ev.Ptr.X)
			b = appendU16(b, ev.Ptr.Y)
		} else {
			down := byte(0)
			if ev.Key.Down {
				down = 1
			}
			b = append(b, MigEventKey, down)
			b = appendU32(b, ev.Key.Key)
		}
	}
	if m.Shadow != nil {
		b = appendU32(b, uint32(m.Shadow.raw))
		b = appendU32(b, uint32(len(m.Shadow.comp)))
		b = append(b, m.Shadow.comp...)
	}
	return b, nil
}

// migDecoder is a bounds-checked cursor over an encoded record.
type migDecoder struct {
	b   []byte
	off int
}

func (d *migDecoder) need(n int) ([]byte, error) {
	if len(d.b)-d.off < n {
		return nil, fmt.Errorf("rfb: migration record truncated at offset %d (need %d bytes)", d.off, n)
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s, nil
}

func (d *migDecoder) u16() (uint16, error) {
	s, err := d.need(2)
	if err != nil {
		return 0, err
	}
	return be.Uint16(s), nil
}

func (d *migDecoder) u32() (uint32, error) {
	s, err := d.need(4)
	if err != nil {
		return 0, err
	}
	return be.Uint32(s), nil
}

// DecodeMigration parses an encoded migration record, validating framing
// and rejecting trailing bytes.
func DecodeMigration(b []byte) (*MigrationRecord, error) {
	d := &migDecoder{b: b}
	magic, err := d.need(len(MigMagic))
	if err != nil {
		return nil, err
	}
	if string(magic) != MigMagic {
		return nil, fmt.Errorf("rfb: migration record: bad magic %q", magic)
	}
	hdr, err := d.need(3)
	if err != nil {
		return nil, err
	}
	flags, lastMask, tokenLen := hdr[0], hdr[1], int(hdr[2])
	if tokenLen == 0 {
		return nil, fmt.Errorf("rfb: migration record: empty token")
	}
	tok, err := d.need(tokenLen)
	if err != nil {
		return nil, err
	}
	m := &MigrationRecord{
		Token:       string(tok),
		LastPtrMask: lastMask,
		PFSet:       flags&MigFlagPF != 0,
		HasPending:  flags&MigFlagPending != 0,
	}
	w, err := d.u16()
	if err != nil {
		return nil, err
	}
	h, err := d.u16()
	if err != nil {
		return nil, err
	}
	m.W, m.H = int(w), int(h)
	pfb, err := d.need(16)
	if err != nil {
		return nil, err
	}
	m.PF = pixelFormatFrom(pfb)
	ttl, err := d.u32()
	if err != nil {
		return nil, err
	}
	det, err := d.u32()
	if err != nil {
		return nil, err
	}
	m.RemainingTTL = time.Duration(ttl) * time.Millisecond
	m.DetachedFor = time.Duration(det) * time.Millisecond
	var pr [4]uint16
	for i := range pr {
		if pr[i], err = d.u16(); err != nil {
			return nil, err
		}
	}
	if m.HasPending {
		m.Pending = UpdateRequest{
			Incremental: flags&MigFlagIncremental != 0,
			Region:      gfx.R(int(pr[0]), int(pr[1]), int(pr[2]), int(pr[3])),
		}
	}
	nDirty, err := d.u16()
	if err != nil {
		return nil, err
	}
	for i := 0; i < int(nDirty); i++ {
		var rr [4]uint16
		for j := range rr {
			if rr[j], err = d.u16(); err != nil {
				return nil, err
			}
		}
		m.Dirty = append(m.Dirty, gfx.R(int(rr[0]), int(rr[1]), int(rr[2]), int(rr[3])))
	}
	nEvents, err := d.u16()
	if err != nil {
		return nil, err
	}
	for i := 0; i < int(nEvents); i++ {
		eh, err := d.need(2)
		if err != nil {
			return nil, err
		}
		switch eh[0] {
		case MigEventKey:
			key, err := d.u32()
			if err != nil {
				return nil, err
			}
			m.Events = append(m.Events, MigEvent{Key: KeyEvent{Down: eh[1] != 0, Key: key}})
		case MigEventPointer, MigEventMove:
			x, err := d.u16()
			if err != nil {
				return nil, err
			}
			y, err := d.u16()
			if err != nil {
				return nil, err
			}
			m.Events = append(m.Events, MigEvent{
				Pointer: true,
				Move:    eh[0] == MigEventMove,
				Ptr:     PointerEvent{Buttons: eh[1], X: x, Y: y},
			})
		default:
			return nil, fmt.Errorf("rfb: migration record: unknown event kind %d", eh[0])
		}
	}
	if flags&MigFlagShadow != 0 {
		raw, err := d.u32()
		if err != nil {
			return nil, err
		}
		compLen, err := d.u32()
		if err != nil {
			return nil, err
		}
		comp, err := d.need(int(compLen))
		if err != nil {
			return nil, err
		}
		m.Shadow = &PackedShadow{
			w: m.W, h: m.H,
			pf: m.PF, pfSet: m.PFSet,
			dict: flags&MigFlagDict != 0,
			comp: append([]byte(nil), comp...),
			raw:  int(raw),
		}
	}
	if d.off != len(b) {
		return nil, fmt.Errorf("rfb: migration record: %d trailing bytes", len(b)-d.off)
	}
	return m, nil
}
