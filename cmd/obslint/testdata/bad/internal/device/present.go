// Package device writes an output panel through its raw pixel slice, which
// the pixel-write rule refuses.
package device

type frame struct{ pix []uint32 }

func (f *frame) Pix() []uint32 { return f.pix }

func present(out, in, panel, frame *frame, i, n int) {
	copy(out.Pix(), in.Pix())
	panel.Pix()[i] = 7
	copy(frame.Pix()[:n], in.Pix())
}
