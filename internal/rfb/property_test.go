package rfb

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"uniint/internal/gfx"
)

// randomFrame builds a frame mixing solid runs and noise — adversarial
// for the run-length encoders without being pure noise.
func randomFrame(rng *rand.Rand, w, h int) *gfx.Framebuffer {
	f := gfx.NewFramebuffer(w, h)
	pix := f.Pix()
	i := 0
	for i < len(pix) {
		run := 1 + rng.Intn(40)
		var c gfx.Color
		if rng.Intn(4) == 0 {
			c = gfx.Color(rng.Uint32() & 0xFFFFFF)
		} else {
			// A small palette keeps runs frequent.
			palette := []gfx.Color{gfx.Black, gfx.White, gfx.Gray, gfx.Blue, gfx.Red}
			c = palette[rng.Intn(len(palette))]
		}
		for j := 0; j < run && i < len(pix); j++ {
			pix[i] = c
			i++
		}
	}
	return f
}

// TestEncodingRoundTripProperty: for random frames, random sub-rects and
// every encoding/pixel-format pair, decode(encode(x)) == quantize(x).
func TestEncodingRoundTripProperty(t *testing.T) {
	encodings := []int32{EncRaw, EncRRE, EncHextile, EncZlib}
	formats := []gfx.PixelFormat{gfx.PF32(), gfx.PF16(), gfx.PF8()}

	prop := func(seed int64, rx, ry, rw, rh uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 17 + int(rx%3)*16 // odd widths cross tile boundaries
		h := 17 + int(ry%3)*16
		frame := randomFrame(rng, w, h)
		r := gfx.R(int(rx)%w, int(ry)%h, int(rw)%w+1, int(rh)%h+1).
			Intersect(frame.Bounds())
		if r.Empty() {
			return true
		}
		for _, pf := range formats {
			// The wire quantizes: compare against the quantized source.
			want := gfx.NewFramebuffer(w, h)
			for i, c := range frame.Pix() {
				want.Pix()[i] = pf.Decode(pf.Encode(c))
			}
			for _, enc := range encodings {
				body, err := EncodeRectInto(nil, enc, frame, r, pf)
				if err != nil {
					return false
				}
				dst := gfx.NewFramebuffer(w, h)
				if err := decodeRect(bytes.NewReader(body), enc, dst, r, pf, nil); err != nil {
					return false
				}
				for y := r.Y; y < r.MaxY(); y++ {
					for x := r.X; x < r.MaxX(); x++ {
						if dst.At(x, y) != want.At(x, y) {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestHextileBoundedExpansionProperty: hextile never exceeds raw by more
// than one mask byte per 16×16 tile, on any input.
func TestHextileBoundedExpansionProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		frame := randomFrame(rng, 64, 48)
		pf := gfx.PF32()
		r := frame.Bounds()
		raw, err := EncodeRectInto(nil, EncRaw, frame, r, pf)
		if err != nil {
			return false
		}
		hex, err := EncodeRectInto(nil, EncHextile, frame, r, pf)
		if err != nil {
			return false
		}
		tiles := ((r.W + 15) / 16) * ((r.H + 15) / 16)
		return len(hex) <= len(raw)+tiles
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPixelSerializationProperty: putPixel/getPixel round-trip for every
// format at quantization precision.
func TestPixelSerializationProperty(t *testing.T) {
	formats := []gfx.PixelFormat{gfx.PF32(), gfx.PF16(), gfx.PF8()}
	buf := make([]byte, 4)
	prop := func(r, g, b uint8, bigEndian bool) bool {
		for _, pf := range formats {
			pf.BigEndian = bigEndian
			c := gfx.RGB(r, g, b)
			want := pf.Decode(pf.Encode(c))
			n := putPixel(buf, pf, c)
			if n != pf.BytesPerPixel() {
				return false
			}
			got, m := getPixel(buf, pf)
			if m != n || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
