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
// big-endian layout (documented in docs/WIRE.md) and nothing else.

// Migration record framing constants (layout in docs/WIRE.md).
const (
	// MigMagic opens every migration record: version bumps change the magic.
	MigMagic = "UNIMIG/2"
	// MigEventKey tags a queued key event (payload: down u8, keysym u32).
	MigEventKey = 1
	// MigEventPointer tags a queued pointer click/press event
	// (payload: buttons u8, x u16, y u16).
	MigEventPointer = 2
	// MigEventMove tags a queued pointer move event (same payload as
	// MigEventPointer; moves are coalescable, clicks are not).
	MigEventMove = 3
)

// migEventLen is the encoded size of every event kind: kind, payload
// byte, then a keysym u32 or an x, y u16 pair.
const migEventLen = 6

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
	// Dirty is the damage accumulated while parked.
	Dirty []gfx.Rect
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
	b := make([]byte, 0, len(MigMagic)+2+len(m.Token)+14+8*len(m.Dirty)+2+migEventLen*len(m.Events))
	b = append(b, MigMagic...)
	b = append(b, m.LastPtrMask, byte(len(m.Token)))
	b = append(b, m.Token...)
	b = be.AppendUint16(b, uint16(m.W))
	b = be.AppendUint16(b, uint16(m.H))
	b = be.AppendUint32(b, clampMS(m.RemainingTTL))
	b = be.AppendUint32(b, clampMS(m.DetachedFor))
	b = be.AppendUint16(b, uint16(len(m.Dirty)))
	for _, d := range m.Dirty {
		b = be.AppendUint16(b, uint16(d.X))
		b = be.AppendUint16(b, uint16(d.Y))
		b = be.AppendUint16(b, uint16(d.W))
		b = be.AppendUint16(b, uint16(d.H))
	}
	b = be.AppendUint16(b, uint16(len(m.Events)))
	for _, ev := range m.Events {
		if ev.Pointer {
			kind := byte(MigEventPointer)
			if ev.Move {
				kind = MigEventMove
			}
			b = append(b, kind, ev.Ptr.Buttons)
			b = be.AppendUint16(b, ev.Ptr.X)
			b = be.AppendUint16(b, ev.Ptr.Y)
		} else {
			down := byte(0)
			if ev.Key.Down {
				down = 1
			}
			b = append(b, MigEventKey, down)
			b = be.AppendUint32(b, ev.Key.Key)
		}
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

// DecodeMigration parses an encoded migration record, validating framing
// and rejecting trailing bytes. Every record it accepts re-encodes to
// exactly the bytes it was given.
func DecodeMigration(b []byte) (*MigrationRecord, error) {
	d := &migDecoder{b: b}
	hdr, err := d.need(len(MigMagic) + 2)
	if err != nil {
		return nil, err
	}
	if magic := hdr[:len(MigMagic)]; string(magic) != MigMagic {
		return nil, fmt.Errorf("rfb: migration record: bad magic %q", magic)
	}
	m := &MigrationRecord{LastPtrMask: hdr[len(MigMagic)]}
	tokenLen := int(hdr[len(MigMagic)+1])
	if tokenLen == 0 {
		return nil, fmt.Errorf("rfb: migration record: empty token")
	}
	tok, err := d.need(tokenLen)
	if err != nil {
		return nil, err
	}
	m.Token = string(tok)
	// width, height, remaining-ttl-ms, detached-for-ms, dirty-count
	fixed, err := d.need(14)
	if err != nil {
		return nil, err
	}
	m.W, m.H = int(be.Uint16(fixed)), int(be.Uint16(fixed[2:]))
	m.RemainingTTL = time.Duration(be.Uint32(fixed[4:])) * time.Millisecond
	m.DetachedFor = time.Duration(be.Uint32(fixed[8:])) * time.Millisecond
	// Counts are checked against the bytes present before anything is
	// allocated, so a hostile count costs nothing.
	rects, err := d.need(8 * int(be.Uint16(fixed[12:])))
	if err != nil {
		return nil, err
	}
	for r := rects; len(r) > 0; r = r[8:] {
		m.Dirty = append(m.Dirty, gfx.R(int(be.Uint16(r)), int(be.Uint16(r[2:])),
			int(be.Uint16(r[4:])), int(be.Uint16(r[6:]))))
	}
	count, err := d.need(2)
	if err != nil {
		return nil, err
	}
	events, err := d.need(migEventLen * int(be.Uint16(count)))
	if err != nil {
		return nil, err
	}
	for e := events; len(e) > 0; e = e[migEventLen:] {
		switch e[0] {
		case MigEventKey:
			if e[1] > 1 {
				return nil, fmt.Errorf("rfb: migration record: key down byte %d", e[1])
			}
			m.Events = append(m.Events, MigEvent{Key: KeyEvent{Down: e[1] == 1, Key: be.Uint32(e[2:])}})
		case MigEventPointer, MigEventMove:
			m.Events = append(m.Events, MigEvent{
				Pointer: true,
				Move:    e[0] == MigEventMove,
				Ptr:     PointerEvent{Buttons: e[1], X: be.Uint16(e[2:]), Y: be.Uint16(e[4:])},
			})
		default:
			return nil, fmt.Errorf("rfb: migration record: unknown event kind %d", e[0])
		}
	}
	if d.off != len(b) {
		return nil, fmt.Errorf("rfb: migration record: %d trailing bytes", len(b)-d.off)
	}
	return m, nil
}
