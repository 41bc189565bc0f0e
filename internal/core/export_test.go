package core

import "uniint/internal/gfx"

// PresentUpdate runs the present path exactly as the read loop's Updated
// does for an update that painted rects, so a test can count what one
// frame allocates with nothing else running.
func (p *Proxy) PresentUpdate(rects []gfx.Rect) { p.present(rects) }
