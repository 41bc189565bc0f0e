package rfb

import (
	"math/rand"
	"testing"

	"uniint/internal/gfx"
)

func TestAdaptiveEncodingPicksByContent(t *testing.T) {
	flat := gfx.NewFramebuffer(128, 128)
	flat.Clear(gfx.Blue)
	if enc := AdaptiveEncoding(flat, flat.Bounds()); enc != EncRRE {
		t.Errorf("flat content: picked %s, want rre", EncodingName(enc))
	}

	gui := makeGUIFrame(128, 128)
	if enc := AdaptiveEncoding(gui, gui.Bounds()); enc != EncHextile {
		t.Errorf("gui content: picked %s, want hextile", EncodingName(enc))
	}

	noise := makeNoiseFrame(128, 128, 5)
	if enc := AdaptiveEncoding(noise, noise.Bounds()); enc != EncRaw {
		t.Errorf("noise content: picked %s, want raw", EncodingName(enc))
	}
}

// TestAdaptiveNeverWorseThanStaticHextile: on each content class, the
// adaptive pick's output is within a small factor of the best static
// choice — the whole point of probing content.
func TestAdaptiveBeatsOrMatchesWorstStaticChoice(t *testing.T) {
	pf := gfx.PF32()
	frames := map[string]*gfx.Framebuffer{
		"flat":  func() *gfx.Framebuffer { f := gfx.NewFramebuffer(160, 120); f.Clear(gfx.Gray); return f }(),
		"gui":   makeGUIFrame(160, 120),
		"noise": makeNoiseFrame(160, 120, 77),
	}
	for name, frame := range frames {
		r := frame.Bounds()
		pick := AdaptiveEncoding(frame, r)
		picked, err := EncodeRectInto(nil, pick, frame, r, pf)
		if err != nil {
			t.Fatal(err)
		}
		best := -1
		for _, enc := range []int32{EncRaw, EncRRE, EncHextile} {
			body, err := EncodeRectInto(nil, enc, frame, r, pf)
			if err != nil {
				t.Fatal(err)
			}
			if best < 0 || len(body) < best {
				best = len(body)
			}
		}
		// Allow some slack: the probe is approximate by design.
		if len(picked) > best*3/2+64 {
			t.Errorf("%s: adaptive pick %s = %d bytes, best static = %d",
				name, EncodingName(pick), len(picked), best)
		}
	}
}

func TestChooseEncodingRespectsClientMask(t *testing.T) {
	flat := gfx.NewFramebuffer(64, 64)
	flat.Clear(gfx.Red)
	sc := getScratch()
	defer putScratch(sc)

	// Only raw advertised: no room to adapt, fallback wins.
	if enc := chooseEncoding(flat, flat.Bounds(), encBitRaw, EncRaw, sc); enc != EncRaw {
		t.Errorf("raw-only mask: %s", EncodingName(enc))
	}
	// Raw+hextile advertised, flat content: RRE not allowed, hextile picked.
	if enc := chooseEncoding(flat, flat.Bounds(), encBitRaw|encBitHextile, EncRaw, sc); enc != EncHextile {
		t.Errorf("no-rre mask on flat: %s", EncodingName(enc))
	}
	// GUI content with RRE but no hextile advertised: RRE, not raw.
	gui := makeGUIFrame(64, 64)
	if enc := chooseEncoding(gui, gfx.R(8, 30, 40, 20), encBitRaw|encBitRRE, EncRaw, sc); enc != EncRRE {
		t.Errorf("no-hextile mask on gui: %s", EncodingName(enc))
	}
	// Noise with no raw advertised: hextile (bounded expansion fallback).
	noise := makeNoiseFrame(64, 64, 3)
	if enc := chooseEncoding(noise, noise.Bounds(), encBitRRE|encBitHextile, EncRRE, sc); enc != EncHextile {
		t.Errorf("no-raw mask on noise: %s", EncodingName(enc))
	}
}

// TestAdaptiveProbeBounded: the probe samples a bounded pixel count even
// on huge rects.
func TestAdaptiveProbeBounded(t *testing.T) {
	big := gfx.NewFramebuffer(2048, 2048)
	rng := rand.New(rand.NewSource(1))
	pix := big.Pix()
	for i := range pix {
		pix[i] = gfx.Color(rng.Uint32() & 0xFFFFFF)
	}
	sc := getScratch()
	defer putScratch(sc)
	before := mProbePixels.Value()
	probeDistinct(big, big.Bounds(), sc)
	sampled := mProbePixels.Value() - before
	// 16×16 grid plus rounding: well under 4 × the budget.
	if sampled > 4*adaptiveProbeBudget {
		t.Errorf("probe sampled %d pixels on a 4M-pixel rect", sampled)
	}
}
