package gfx

// ScaleNearestInto resizes src onto dst's own size using nearest-neighbour
// sampling, overwriting every pixel of dst and allocating nothing. It is
// the cheap path used when upscaling or when the output device asked for
// speed over quality.
func ScaleNearestInto(dst, src *Framebuffer) {
	w, h := dst.w, dst.h
	dst.wrote(0, h)
	if src.w == 0 || src.h == 0 {
		clear(dst.pix)
		return
	}
	for y := 0; y < h; y++ {
		sy := y * src.h / h
		srow := src.pix[sy*src.w : (sy+1)*src.w]
		drow := dst.pix[y*w : (y+1)*w]
		for x := 0; x < w; x++ {
			drow[x] = srow[x*src.w/w]
		}
	}
}

// ScaleBox resizes src to w×h using box averaging. When downscaling (the
// common case: a 640×480 server frame onto a 320×240 PDA or 96×64 phone
// screen) it averages all covered source pixels, which keeps text legible
// where nearest-neighbour would drop strokes.
func ScaleBox(src *Framebuffer, w, h int) *Framebuffer {
	dst := NewFramebuffer(w, h)
	ScaleBoxInto(dst, src)
	return dst
}

// ScaleBoxInto is ScaleBox onto dst's own size, overwriting every pixel of
// dst and allocating nothing: an output plug-in keeps one panel.
func ScaleBoxInto(dst, src *Framebuffer) {
	w, h := dst.w, dst.h
	if src.w == 0 || src.h == 0 || (w >= src.w && h >= src.h) {
		// Upscale (or nothing to sample): box degenerates to nearest.
		ScaleNearestInto(dst, src)
		return
	}
	dst.wrote(0, h)
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
}
