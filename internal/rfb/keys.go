package rfb

// Universal key symbols. Printable ASCII characters map to their own code
// points; function and editing keys use the X11 keysym values that RFB
// inherited, so any thin-client-aware toolkit interprets them identically.
const (
	KeyBackSpace uint32 = 0xFF08
	KeyTab       uint32 = 0xFF09
	KeyReturn    uint32 = 0xFF0D
	KeyEscape    uint32 = 0xFF1B
	KeyLeft      uint32 = 0xFF51
	KeyUp        uint32 = 0xFF52
	KeyRight     uint32 = 0xFF53
	KeyDown      uint32 = 0xFF54
	KeyPageUp    uint32 = 0xFF55
	KeyPageDown  uint32 = 0xFF56
	KeyHome      uint32 = 0xFF50
	KeyEnd       uint32 = 0xFF57
	KeyF1        uint32 = 0xFFBE
	KeyF2        uint32 = 0xFFBF
	KeyF3        uint32 = 0xFFC0
	KeyF4        uint32 = 0xFFC1
	KeyShiftL    uint32 = 0xFFE1
	KeyControlL  uint32 = 0xFFE3
)
