package gfx

// The phone output plug-in's colour reduction: the 1-bit Bitmap its screen
// holds and the error-diffusion binarization that fills it.

// Bitmap is a 1-bit-per-pixel image, the native format of the cellular
// phone device's display. Rows are packed MSB-first.
type Bitmap struct {
	W, H   int
	Stride int // bytes per row
	Bits   []byte
}

// NewBitmap allocates a cleared w×h bitmap.
func NewBitmap(w, h int) *Bitmap {
	stride := (w + 7) / 8
	return &Bitmap{W: w, H: h, Stride: stride, Bits: make([]byte, stride*h)}
}

// Get reports whether the pixel at (x, y) is set; out of bounds is false.
func (b *Bitmap) Get(x, y int) bool {
	if x < 0 || y < 0 || x >= b.W || y >= b.H {
		return false
	}
	return b.Bits[y*b.Stride+x/8]&(0x80>>uint(x%8)) != 0
}

// Set sets or clears the pixel at (x, y); out of bounds is ignored.
func (b *Bitmap) Set(x, y int, on bool) {
	if x < 0 || y < 0 || x >= b.W || y >= b.H {
		return
	}
	mask := byte(0x80) >> uint(x%8)
	if on {
		b.Bits[y*b.Stride+x/8] |= mask
	} else {
		b.Bits[y*b.Stride+x/8] &^= mask
	}
}

// Ones counts the number of set pixels; tests use it to tell a rendered
// phone screen from a blank one.
func (b *Bitmap) Ones() int {
	n := 0
	for _, v := range b.Bits {
		for ; v != 0; v &= v - 1 {
			n++
		}
	}
	return n
}

// FloydSteinbergInto binarizes src into dst (src's size, every pixel
// overwritten) with Floyd–Steinberg error diffusion, the quality path of
// the phone output plug-in; error weights are the classic 7/16, 3/16,
// 5/16, 1/16. scratch holds the two error rows: grown when shorter than
// 2×(src.W()+2) and returned, so a caller that keeps it allocates nothing.
func FloydSteinbergInto(dst *Bitmap, src *Framebuffer, scratch []int32) []int32 {
	clear(dst.Bits)
	if n := 2 * (src.w + 2); len(scratch) < n {
		scratch = make([]int32, n)
	}
	cur, next := scratch[:src.w+2], scratch[src.w+2:2*(src.w+2)]
	clear(cur)
	for y := 0; y < src.h; y++ {
		row := src.pix[y*src.w : (y+1)*src.w]
		clear(next)
		for x := 0; x < src.w; x++ {
			v := int32(row[x].Gray()) + cur[x+1]
			var out int32
			if v >= 128 {
				out = 255
				dst.Set(x, y, true)
			}
			e := v - out
			cur[x+2] += e * 7 / 16
			next[x] += e * 3 / 16
			next[x+1] += e * 5 / 16
			next[x+2] += e * 1 / 16
		}
		cur, next = next, cur
	}
	return scratch
}
