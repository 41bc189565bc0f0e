package gfx

// Color is a 24-bit RGB color packed as 0x00RRGGBB. The alpha channel is not
// modeled: the paper's thin-client protocol ships opaque framebuffers.
type Color uint32

// RGB constructs a Color from 8-bit components.
func RGB(r, g, b uint8) Color {
	return Color(uint32(r)<<16 | uint32(g)<<8 | uint32(b))
}

// R returns the red component.
func (c Color) R() uint8 { return uint8(c >> 16) }

// G returns the green component.
func (c Color) G() uint8 { return uint8(c >> 8) }

// B returns the blue component.
func (c Color) B() uint8 { return uint8(c) }

// Gray returns the luma of c using the BT.601 weights (the same integer
// approximation used by the output plug-ins when rendering to monochrome
// devices): y = (299r + 587g + 114b) / 1000.
func (c Color) Gray() uint8 {
	y := (299*uint32(c.R()) + 587*uint32(c.G()) + 114*uint32(c.B())) / 1000
	return uint8(y)
}

// Common colors used by the toolkit's default theme.
const (
	Black     Color = 0x000000
	White     Color = 0xFFFFFF
	LightGray Color = 0xC0C0C0
	Gray      Color = 0x808080
	DarkGray  Color = 0x404040
	Red       Color = 0xCC2222
	Green     Color = 0x22AA22
	Blue      Color = 0x2244CC
	Yellow    Color = 0xDDCC22
	Navy      Color = 0x102040
)

// PixelFormat describes how a device or protocol peer lays out pixels.
// It mirrors the fields of the RFB SetPixelFormat message, which the
// universal interaction protocol reuses verbatim.
type PixelFormat struct {
	BitsPerPixel uint8 // 8, 16 or 32
	Depth        uint8 // meaningful bits
	BigEndian    bool
	TrueColor    bool // false means palette-indexed
	RedMax       uint16
	GreenMax     uint16
	BlueMax      uint16
	RedShift     uint8
	GreenShift   uint8
	BlueShift    uint8
}

// PF32 is the canonical 32-bit true-color format (0x00RRGGBB, little-endian
// on the wire). It is the server's native format.
func PF32() PixelFormat {
	return PixelFormat{
		BitsPerPixel: 32, Depth: 24, TrueColor: true,
		RedMax: 255, GreenMax: 255, BlueMax: 255,
		RedShift: 16, GreenShift: 8, BlueShift: 0,
	}
}

// PF16 is the common 16-bit RGB565 format used by PDA-class displays.
func PF16() PixelFormat {
	return PixelFormat{
		BitsPerPixel: 16, Depth: 16, TrueColor: true,
		RedMax: 31, GreenMax: 63, BlueMax: 31,
		RedShift: 11, GreenShift: 5, BlueShift: 0,
	}
}

// PF8 is an 8-bit BGR233 true-color format used by low-end displays.
func PF8() PixelFormat {
	return PixelFormat{
		BitsPerPixel: 8, Depth: 8, TrueColor: true,
		RedMax: 7, GreenMax: 7, BlueMax: 3,
		RedShift: 0, GreenShift: 3, BlueShift: 6,
	}
}

// BytesPerPixel returns the wire size of one pixel in this format.
func (pf PixelFormat) BytesPerPixel() int { return int(pf.BitsPerPixel) / 8 }

// Encode converts c into the wire representation under pf.
func (pf PixelFormat) Encode(c Color) uint32 {
	r := uint32(c.R()) * uint32(pf.RedMax) / 255
	g := uint32(c.G()) * uint32(pf.GreenMax) / 255
	b := uint32(c.B()) * uint32(pf.BlueMax) / 255
	return r<<pf.RedShift | g<<pf.GreenShift | b<<pf.BlueShift
}

// Decode converts a wire pixel under pf back into a Color. Components are
// rescaled to full 8-bit range.
func (pf PixelFormat) Decode(v uint32) Color {
	scale := func(x, maxv uint32) uint8 {
		if maxv == 0 {
			return 0
		}
		return uint8(x * 255 / maxv)
	}
	r := scale(v>>pf.RedShift&uint32(pf.RedMax), uint32(pf.RedMax))
	g := scale(v>>pf.GreenShift&uint32(pf.GreenMax), uint32(pf.GreenMax))
	b := scale(v>>pf.BlueShift&uint32(pf.BlueMax), uint32(pf.BlueMax))
	return RGB(r, g, b)
}

// Valid performs basic sanity checks on the format.
func (pf PixelFormat) Valid() bool {
	switch pf.BitsPerPixel {
	case 8, 16, 32:
	default:
		return false
	}
	if !pf.TrueColor {
		return false // palette formats are not supported by this implementation
	}
	if pf.RedMax == 0 || pf.GreenMax == 0 || pf.BlueMax == 0 {
		return false
	}
	return true
}
