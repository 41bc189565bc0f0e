package rfb

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"uniint/internal/gfx"
)

// TestPooledEncodeRoundTripProperty guards the pooled encode path against
// scratch-buffer aliasing: random rects are encoded back to back through
// the same reused destination buffer and pooled scratch (the exact reuse
// pattern of the steady-state server), the wire bytes are retained, and
// only then decoded. If an encoder leaked a reference into pooled scratch,
// the later encodes would corrupt the earlier bodies.
func TestPooledEncodeRoundTripProperty(t *testing.T) {
	encodings := []int32{EncRaw, EncRRE, EncHextile}
	formats := []gfx.PixelFormat{gfx.PF32(), gfx.PF16(), gfx.PF8()}

	prop := func(seed int64, geo [6]uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 33 + int(geo[0]%3)*16
		h := 33 + int(geo[1]%3)*16
		frame := randomFrame(rng, w, h)

		// Three random non-empty rects (may overlap, cross tiles).
		var rects []gfx.Rect
		for i := 0; i < 3; i++ {
			r := gfx.R(int(geo[i%6])%w, int(geo[(i+1)%6])%h,
				int(geo[(i+2)%6])%w+1, int(geo[(i+3)%6])%h+1).
				Intersect(frame.Bounds())
			if !r.Empty() {
				rects = append(rects, r)
			}
		}
		if len(rects) == 0 {
			return true
		}

		for _, pf := range formats {
			want := gfx.NewFramebuffer(w, h)
			for i, c := range frame.Pix() {
				want.Pix()[i] = pf.Decode(pf.Encode(c))
			}
			for _, enc := range encodings {
				// Encode every rect into ONE shared buffer on ONE scratch
				// before decoding any of them.
				sc := getScratch()
				var buf []byte
				var spans [][2]int
				for _, r := range rects {
					start := len(buf)
					out, err := encodeRect(buf, enc, frame, r, pf, sc)
					if err != nil {
						putScratch(sc)
						return false
					}
					buf = out
					spans = append(spans, [2]int{start, len(buf)})
				}
				putScratch(sc)

				dst := gfx.NewFramebuffer(w, h)
				for i, r := range rects {
					body := buf[spans[i][0]:spans[i][1]]
					if err := decodeRect(bytes.NewReader(body), enc, dst, r, pf, &decodeScratch{}); err != nil {
						return false
					}
				}
				for _, r := range rects {
					for y := r.Y; y < r.MaxY(); y++ {
						for x := r.X; x < r.MaxX(); x++ {
							if dst.At(x, y) != want.At(x, y) {
								return false
							}
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestScratchReuseAcrossEncodings: one scratch sequentially runs every
// encoder (the adaptive path does exactly this) without cross-talk.
func TestScratchReuseAcrossEncodings(t *testing.T) {
	frame := makeGUIFrame(100, 80)
	pf := gfx.PF32()
	r := frame.Bounds()

	sc := getScratch()
	defer putScratch(sc)
	var ref [][]byte
	for _, enc := range []int32{EncRaw, EncRRE, EncHextile, EncZlib} {
		body, err := encodeRect(nil, enc, frame, r, pf, sc)
		if err != nil {
			t.Fatal(err)
		}
		ref = append(ref, body)
	}
	// Re-encode on the same scratch; output must be byte-identical.
	for i, enc := range []int32{EncRaw, EncRRE, EncHextile, EncZlib} {
		body, err := encodeRect(nil, enc, frame, r, pf, sc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, ref[i]) {
			t.Errorf("%s: scratch reuse changed output (%d vs %d bytes)",
				EncodingName(enc), len(body), len(ref[i]))
		}
	}
}

// TestColorHistExactUnderCapacity: the census counts exactly while under
// table capacity, across generations.
func TestColorHistExactUnderCapacity(t *testing.T) {
	var h colorHist
	for gen := 0; gen < 3; gen++ {
		h.reset()
		for i := 0; i < 300; i++ {
			h.add(gfx.Color(i % 30))
		}
		if h.distinct != 30 {
			t.Fatalf("gen %d: distinct = %d, want 30", gen, h.distinct)
		}
		if c, n := h.max(); n != 10 {
			t.Fatalf("gen %d: max = (%v,%d), want count 10", gen, c, n)
		}
		if h.saturated {
			t.Fatalf("gen %d: unexpectedly saturated", gen)
		}
	}
}

// TestColorHistSaturationIsSafe: far more distinct colors than capacity
// must not panic and must keep a usable (approximate) max.
func TestColorHistSaturationIsSafe(t *testing.T) {
	var h colorHist
	h.reset()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100000; i++ {
		h.add(gfx.Color(rng.Uint32() & 0xFFFFFF))
	}
	if h.distinct == 0 {
		t.Fatal("census lost everything")
	}
	if _, n := h.max(); n < 1 {
		t.Fatal("max unusable after saturation")
	}
}

func TestPreparedUpdateReleaseIdempotent(t *testing.T) {
	var p *PreparedUpdate
	p.Release() // nil-safe
	sc := getScratch()
	sc.prep.sc = sc
	p = &sc.prep
	p.Release()
	p.Release() // double release is a no-op (sc cleared by putScratch)
}
