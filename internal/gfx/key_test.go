package gfx

import (
	"testing"

	"uniint/internal/metrics"
)

// keyOp applies one writer or a Key read to f, driven by the bytes of op;
// src is a second frame the Blit and scale writers read. A Key read checks
// the memoised key against a fresh one over the same pixels.
func keyOp(t *testing.T, f, src *Framebuffer, op []byte) {
	t.Helper()
	at := func(i, n int) int { return int(op[i]) % (n + 2) }
	w, h := f.W(), f.H()
	r := R(at(1, w)-1, at(2, h)-1, at(3, w), at(4, h))
	c := Color(op[5]) * 0x010203
	switch op[0] % 8 {
	case 0:
		f.Set(r.X, r.Y, c)
	case 1:
		f.Fill(r, c)
	case 2:
		f.Blit(r.X, r.Y, src, R(at(5, w)-1, at(6, h)-1, r.W, r.H))
	case 3:
		f.CopyRect(at(5, w)-1, at(6, h)-1, r)
	case 4:
		DrawTextClipped(f, r.X-3, r.Y-3, string([]byte{'A' + op[5]%26, 'a' + op[6]%26}), c, r)
	case 5:
		ScaleBoxInto(f, src)
	case 6:
		r = R(0, r.Y, w, r.H) // a full-width span: the memoised path
		fallthrough
	default:
		if got, want := f.Key(r), f.Clone().Key(r); got != want {
			t.Fatalf("Key(%v) = %x, a fresh key over the same pixels is %x", r, got, want)
		}
	}
}

// FuzzFrameKeys runs random sequences of every pixel writer interleaved
// with Key reads, full-width and narrower: every memoised key must equal
// a fresh key over the same pixels, so no writer skips its row stamps.
func FuzzFrameKeys(f *testing.F) {
	f.Add([]byte{13, 9, 6, 0, 0, 0, 0, 6, 0, 0, 9, 5, 1, 1, 1, 2, 2, 3, 9, 6, 0, 0, 9, 5, 0, 0})
	f.Add([]byte{5, 5, 4, 2, 3, 6, 4, 5, 2, 6, 0, 1, 10, 7, 0, 7, 3, 1, 2, 0, 9, 4, 2, 3, 6, 1, 0, 8, 6, 0, 0, 9, 5, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		w, h := 1+int(data[0])%24, 1+int(data[1])%24
		fb, src := NewFramebuffer(w, h), NewFramebuffer(w, h)
		for y := 0; y < h; y++ {
			src.HLine(0, y, w, Color(y*0x0A0B0C))
		}
		for data = data[2:]; len(data) >= 7; data = data[7:] {
			keyOp(t, fb, src, data[:7])
		}
		keyOp(t, fb, src, []byte{6, 0, 0, 0, byte(h), 0, 0})
	})
}

// TestKeyTellsContentAndGeometryApart: one pixel, or the same pixels in
// another shape, is another key; equal content in another frame is not.
func TestKeyTellsContentAndGeometryApart(t *testing.T) {
	f := NewFramebuffer(16, 8)
	k := f.Key(f.Bounds())
	if f.Key(R(0, 0, 8, 16)) == f.Key(R(0, 0, 16, 8)) {
		t.Fatal("two shapes of the same black pixels share a key")
	}
	f.Set(15, 7, Color(1<<31))
	if f.Key(f.Bounds()) == k {
		t.Fatal("a write to the last pixel left the key unchanged")
	}
	g := NewFramebuffer(32, 8)
	g.Blit(4, 0, f, f.Bounds())
	if g.Key(R(4, 0, 16, 8)) != f.Key(f.Bounds()) {
		t.Fatal("the same pixels keyed as a tile of a wider frame give another key")
	}
}

// TestKeyRereadsOnlyWrittenRows: re-keying a frame reads the rows written
// since it was last keyed and no others, and a memoised key allocates
// nothing.
func TestKeyRereadsOnlyWrittenRows(t *testing.T) {
	rows := metrics.Default().Counter("gfx_rows_keyed_total")
	f := NewFramebuffer(64, 48)
	n0 := rows.Value()
	f.Key(f.Bounds())
	if d := rows.Value() - n0; d != 48 {
		t.Fatalf("first key read %d rows, want 48", d)
	}
	f.Fill(R(3, 10, 5, 4), Red)
	DrawText(f, 0, 30, "x", White)
	n0 = rows.Value()
	f.Key(R(0, 16, 64, 32))
	f.Key(f.Bounds())
	if d := rows.Value() - n0; d != 4+7 {
		t.Fatalf("re-keying after a 4-row fill and a 7-row glyph read %d rows", d)
	}
	if a := testing.AllocsPerRun(100, func() { f.Key(f.Bounds()) }); a != 0 {
		t.Fatalf("a memoised Key allocates %.0f times", a)
	}
}
