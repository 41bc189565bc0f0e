package gfx

// ScaleNearest resizes src to w×h using nearest-neighbour sampling. It is
// the cheap path used when upscaling or when the output device asked for
// speed over quality.
func ScaleNearest(src *Framebuffer, w, h int) *Framebuffer {
	dst := NewFramebuffer(w, h)
	if src.w == 0 || src.h == 0 || w == 0 || h == 0 {
		return dst
	}
	for y := 0; y < h; y++ {
		sy := y * src.h / h
		srow := src.pix[sy*src.w : (sy+1)*src.w]
		drow := dst.pix[y*w : (y+1)*w]
		for x := 0; x < w; x++ {
			drow[x] = srow[x*src.w/w]
		}
	}
	return dst
}

// ScaleBox resizes src to w×h using box averaging. When downscaling (the
// common case: a 640×480 server frame onto a 320×240 PDA or 96×64 phone
// screen) it averages all covered source pixels, which keeps text legible
// where nearest-neighbour would drop strokes.
func ScaleBox(src *Framebuffer, w, h int) *Framebuffer {
	dst := NewFramebuffer(w, h)
	if src.w == 0 || src.h == 0 || w == 0 || h == 0 {
		return dst
	}
	if w >= src.w && h >= src.h {
		// Upscale: box degenerates to nearest.
		return ScaleNearest(src, w, h)
	}
	for y := 0; y < h; y++ {
		sy0 := y * src.h / h
		sy1 := (y + 1) * src.h / h
		if sy1 <= sy0 {
			sy1 = sy0 + 1
		}
		drow := dst.pix[y*w : (y+1)*w]
		for x := 0; x < w; x++ {
			sx0 := x * src.w / w
			sx1 := (x + 1) * src.w / w
			if sx1 <= sx0 {
				sx1 = sx0 + 1
			}
			var rs, gs, bs, n uint32
			for sy := sy0; sy < sy1; sy++ {
				row := src.pix[sy*src.w : (sy+1)*src.w]
				for sx := sx0; sx < sx1; sx++ {
					c := row[sx]
					rs += uint32(c.R())
					gs += uint32(c.G())
					bs += uint32(c.B())
					n++
				}
			}
			drow[x] = RGB(uint8(rs/n), uint8(gs/n), uint8(bs/n))
		}
	}
	return dst
}
