package rfb

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"uniint/internal/gfx"
)

func TestMigrationRecordRoundTrip(t *testing.T) {
	rec := &MigrationRecord{
		Token: "a0b1c2d3e4f5a6b7c8d9e0f1",
		W:     64, H: 48,
		Dirty: []gfx.Rect{gfx.R(0, 0, 10, 10), gfx.R(30, 20, 4, 6)},
		Events: []MigEvent{
			{Key: KeyEvent{Down: true, Key: 0xff0d}},
			{Key: KeyEvent{Down: false, Key: 0xff0d}},
			{Pointer: true, Ptr: PointerEvent{Buttons: 1, X: 12, Y: 34}},
			{Pointer: true, Move: true, Ptr: PointerEvent{X: 13, Y: 35}},
		},
		LastPtrMask:  1,
		RemainingTTL: 31500 * time.Millisecond,
		DetachedFor:  1200 * time.Millisecond,
	}
	b, err := rec.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := DecodeMigration(b)
	if err != nil {
		t.Fatalf("DecodeMigration: %v", err)
	}
	if got.Token != rec.Token || got.W != rec.W || got.H != rec.H {
		t.Fatalf("identity mismatch: %+v", got)
	}
	if len(got.Dirty) != len(rec.Dirty) {
		t.Fatalf("dirty count mismatch: %d", len(got.Dirty))
	}
	for i := range rec.Dirty {
		if got.Dirty[i] != rec.Dirty[i] {
			t.Fatalf("dirty[%d] = %+v, want %+v", i, got.Dirty[i], rec.Dirty[i])
		}
	}
	if len(got.Events) != len(rec.Events) {
		t.Fatalf("event count mismatch: %d", len(got.Events))
	}
	for i := range rec.Events {
		if got.Events[i] != rec.Events[i] {
			t.Fatalf("event[%d] = %+v, want %+v", i, got.Events[i], rec.Events[i])
		}
	}
	if got.LastPtrMask != rec.LastPtrMask {
		t.Fatalf("ptr mask mismatch: %d", got.LastPtrMask)
	}
	if got.RemainingTTL != rec.RemainingTTL || got.DetachedFor != rec.DetachedFor {
		t.Fatalf("timing mismatch: ttl %v detached %v", got.RemainingTTL, got.DetachedFor)
	}
}

func TestMigrationRecordNoShadow(t *testing.T) {
	rec := &MigrationRecord{Token: "t0", W: 8, H: 8}
	b, err := rec.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := DecodeMigration(b)
	if err != nil {
		t.Fatalf("DecodeMigration: %v", err)
	}
	if len(got.Events) != 0 || len(got.Dirty) != 0 {
		t.Fatalf("empty record gained state: %+v", got)
	}
}

func TestMigrationRecordRejectsGarbage(t *testing.T) {
	good, err := (&MigrationRecord{Token: "tok", W: 16, H: 16}).Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	withKey, err := (&MigrationRecord{Token: "tok", W: 16, H: 16,
		Events: []MigEvent{{Key: KeyEvent{Down: true, Key: 'a'}}}}).Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	downTwo := append([]byte(nil), withKey...)
	downTwo[len(downTwo)-5] = 2
	cases := map[string][]byte{
		"empty":     nil,
		"bad magic": append([]byte("UNIMIG/9"), good[8:]...),
		"UNIMIG/1":  append([]byte("UNIMIG/1"), good[8:]...),
		"truncated": good[:len(good)-3],
		"trailing":  append(append([]byte(nil), good...), 0),
		"down = 2":  downTwo,
	}
	for name, b := range cases {
		if _, err := DecodeMigration(b); err == nil {
			t.Errorf("%s: decode accepted corrupt record", name)
		}
	}
	if _, err := (&MigrationRecord{Token: ""}).Encode(); err == nil {
		t.Error("Encode accepted empty token")
	}
	if _, err := (&MigrationRecord{Token: "t", W: 1 << 17, H: 4}).Encode(); err == nil {
		t.Error("Encode accepted oversized geometry")
	}
}

// FuzzDecodeMigration is the safety net for the record a hub node accepts
// from another: the decoder never panics, and every input it accepts
// re-encodes byte-for-byte, so no field is silently dropped or normalised.
func FuzzDecodeMigration(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeMigration(b)
		if err != nil {
			return
		}
		again, err := m.Encode()
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v (%+v)", err, m)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("re-encode diverged\n  in: %q\n out: %q", b, again)
		}
	})
}

// migrationSeeds builds the committed FuzzDecodeMigration corpus: valid
// records (idle, with damage, with each event kind, with saturated TTLs),
// each of them truncated at every length, and the hostile inputs the
// decoder must reject.
func migrationSeeds() map[string][][]byte {
	enc := func(m *MigrationRecord) []byte {
		b, err := m.Encode()
		if err != nil {
			panic(err)
		}
		return b
	}
	// Every record but the last shares one header, so their truncations
	// mostly coincide.
	rec := func(dirty []gfx.Rect, events ...MigEvent) *MigrationRecord {
		return &MigrationRecord{Token: "t", W: 320, H: 240, LastPtrMask: 1,
			RemainingTTL: 45 * time.Second, DetachedFor: 1500 * time.Millisecond,
			Dirty: dirty, Events: events}
	}
	dirty := []gfx.Rect{gfx.R(0, 0, 16, 8), gfx.R(300, 200, 20, 40)}
	records := []struct {
		name string
		b    []byte
	}{
		{"idle", enc(rec(nil))},
		{"dirty", enc(rec(dirty))},
		{"key", enc(rec(dirty, MigEvent{Key: KeyEvent{Down: true, Key: 0xff0d}}, MigEvent{Key: KeyEvent{Key: 0xff0d}}))},
		{"pointer", enc(rec(dirty, MigEvent{Pointer: true, Ptr: PointerEvent{Buttons: 1, X: 12, Y: 34}}))},
		{"move", enc(rec(dirty, MigEvent{Pointer: true, Move: true, Ptr: PointerEvent{Buttons: 1, X: 13, Y: 35}}))},
		{"ttl-max", enc(&MigrationRecord{Token: "t", W: 0xffff, H: 0xffff,
			RemainingTTL: 1 << 62, DetachedFor: 1 << 62})},
	}
	seeds := map[string][][]byte{}
	seen := map[string]bool{}
	for _, r := range records {
		seeds[r.name] = [][]byte{r.b}
		seen[string(r.b)] = true
	}
	// Records share their leading bytes, so a prefix already seeded under
	// an earlier record is not repeated.
	for _, r := range records {
		for n := 0; n < len(r.b); n++ {
			if !seen[string(r.b[:n])] {
				seen[string(r.b[:n])] = true
				seeds[fmt.Sprintf("%s-trunc-%02d", r.name, n)] = [][]byte{r.b[:n]}
			}
		}
	}
	idle, key := records[0].b, records[2].b
	unknown := append([]byte(nil), key...)
	unknown[len(unknown)-2*migEventLen] = 9
	downTwo := append([]byte(nil), key...)
	downTwo[len(downTwo)-2*migEventLen+1] = 2
	// 65 535 rects claimed, 20 bytes of them present.
	hugeRects := append(append([]byte(nil), idle[:len(idle)-4]...), 0xff, 0xff)
	hugeRects = append(hugeRects, make([]byte, 20)...)
	// 65 535 events claimed, one present.
	hugeEvents := append(append([]byte(nil), idle[:len(idle)-2]...), 0xff, 0xff, MigEventKey, 1, 0, 0, 0, 'a')
	seeds["unknown-kind"] = [][]byte{unknown}
	seeds["key-down-2"] = [][]byte{downTwo}
	seeds["trailing"] = [][]byte{append(append([]byte(nil), idle...), 0)}
	seeds["rects-65535"] = [][]byte{hugeRects}
	seeds["events-65535"] = [][]byte{hugeEvents}
	seeds["unimig1"] = [][]byte{append([]byte("UNIMIG/1"), idle[len(MigMagic):]...)}
	seeds["empty-token"] = [][]byte{append(append([]byte(MigMagic), 0, 0), idle[len(MigMagic)+3:]...)}
	return seeds
}
