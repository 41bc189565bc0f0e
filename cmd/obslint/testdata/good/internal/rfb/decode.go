// Package rfb writes a client's frame through its raw pixel slice in a
// decode function, which the pixel-write rule allows.
package rfb

type frame struct{ pix []uint32 }

func (f *frame) Pix() []uint32 { return f.pix }

func decodeRaw(fb *frame, src []uint32) {
	copy(fb.Pix(), src)
	fb.Pix()[0] = src[0]
}
