package rfb

import (
	"testing"
	"time"

	"uniint/internal/gfx"
)

func testShadow(t *testing.T, w, h int) *PackedShadow {
	t.Helper()
	ws := NewWireState(nil, w, h)
	pix := ws.ensureShadow().Pix()
	for i := range pix {
		pix[i] = gfx.Color(uint32(i)*2654435761 + 7)
	}
	p, err := ws.Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	return p
}

func TestMigrationRecordRoundTrip(t *testing.T) {
	shadow := testShadow(t, 64, 48)
	rec := &MigrationRecord{
		Token: "a0b1c2d3e4f5a6b7c8d9e0f1",
		W:     64, H: 48,
		PF:     gfx.PF16(),
		PFSet:  true,
		Shadow: shadow,
		Dirty:  []gfx.Rect{gfx.R(0, 0, 10, 10), gfx.R(30, 20, 4, 6)},
		Pending: UpdateRequest{
			Incremental: true,
			Region:      gfx.R(0, 0, 64, 48),
		},
		HasPending: true,
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
	if !got.PFSet || got.PF != rec.PF {
		t.Fatalf("pixel format mismatch: %+v vs %+v", got.PF, rec.PF)
	}
	if !got.HasPending || got.Pending != rec.Pending {
		t.Fatalf("pending mismatch: %+v", got.Pending)
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
	if got.Shadow == nil {
		t.Fatal("shadow lost")
	}
	if got.Shadow.RawBytes() != shadow.RawBytes() ||
		got.Shadow.CompressedBytes() != shadow.CompressedBytes() {
		t.Fatalf("shadow sizes: raw %d/%d comp %d/%d", got.Shadow.RawBytes(),
			shadow.RawBytes(), got.Shadow.CompressedBytes(), shadow.CompressedBytes())
	}
	// The shipped shadow must unpack to byte-identical pixels.
	a, err := shadow.Unpack(nil)
	if err != nil {
		t.Fatalf("Unpack original: %v", err)
	}
	bws, err := got.Shadow.Unpack(nil)
	if err != nil {
		t.Fatalf("Unpack decoded: %v", err)
	}
	if !a.shadow.Equal(bws.shadow) {
		t.Fatal("shadow pixels diverged across encode/decode")
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
	if got.Shadow != nil || got.HasPending || len(got.Events) != 0 || len(got.Dirty) != 0 {
		t.Fatalf("empty record gained state: %+v", got)
	}
}

func TestMigrationRecordRejectsGarbage(t *testing.T) {
	rec := &MigrationRecord{Token: "tok", W: 16, H: 16, Shadow: testShadow(t, 16, 16)}
	good, err := rec.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	cases := map[string][]byte{
		"empty":     nil,
		"bad magic": append([]byte("UNIMIG/9"), good[8:]...),
		"truncated": good[:len(good)-3],
		"trailing":  append(append([]byte(nil), good...), 0),
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
