package uniint

import (
	"net"
	"testing"

	"uniint/internal/core"
	"uniint/internal/device"
	"uniint/internal/gfx"
	"uniint/internal/metrics"
	"uniint/internal/rfb"
)

// framedOutput tells the benchmark loop when a frame has been presented.
type framedOutput struct {
	core.OutputDevice
	framed chan struct{}
}

func (o framedOutput) Present(f core.Frame) {
	o.OutputDevice.Present(f)
	o.framed <- struct{}{}
}

// BenchmarkPresent measures the proxy's output path per update: the read
// loop decodes one rectangle into the shadow, the plug-ins hear the damage,
// the selected one converts and the device takes the frame. A damaged
// case ships a CopyRect displaced by one row: it encodes to 4 bytes and
// decodes to a row-wise copy, so the op is the present path plus one
// net.Pipe hop, whatever the pixels are. A switch case ships what the hub
// answers a device switch of an unchanged panel with, one full-bounds
// self-copy, which the client neither applies nor reports. px/op is
// proxy_present_pixels_total per update — the damage on the TV's
// pass-through path, the whole panel on the PDA's and the phone's scaled
// ones, nothing on a switch — and the benchmark fails when a damaged case
// presents nothing or a switch case presents anything. allocs/op counts
// the whole process, the scripted server's send included, and reads 0 on
// every row: the send is every hub session's flush, pinned at zero by
// internal/rfb's TestSendPreparedAllocatesNothing, and the proxy's share
// by internal/core's TestPresentAllocatesNothing.
func BenchmarkPresent(b *testing.B) {
	widget := gfx.R(16, 40, 608, 20) // a toggle row of the 640×480 panel
	full := gfx.R(0, 0, device.TVWidth, device.TVHeight)
	tv := func() core.OutputDevice { return device.NewTVDisplay("out") }
	pda := func() core.OutputDevice { return device.NewPDA("out") }
	phone := func() core.OutputDevice { return device.NewPhone("out") }
	cases := []struct {
		name    string
		out     func() core.OutputDevice
		rect    gfx.Rect
		damaged bool // a displaced copy; a self-copy otherwise
	}{
		{"tv-widget", tv, widget, true},
		{"tv-full", tv, full, true},
		{"pda-widget", pda, widget, true},
		{"phone-widget", phone, widget, true},
		{"tv-switch", tv, full, false},
		{"pda-switch", pda, full, false},
		{"phone-switch", phone, full, false},
	}
	pixels := metrics.Default().Counter("proxy_present_pixels_total")
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			sc, cc := net.Pipe()
			ready := make(chan *rfb.ServerConn, 1)
			go func() {
				s, err := rfb.NewEdgeServerConn(sc, device.TVWidth, device.TVHeight, "present", nil)
				if err != nil {
					close(ready)
					return
				}
				ready <- s
				_ = s.Serve(discardHandler{})
			}()
			proxy, err := core.Dial(cc)
			if err != nil {
				b.Fatal(err)
			}
			srv := <-ready
			if srv == nil {
				b.Fatal("server handshake failed")
			}
			ran := make(chan struct{})
			go func() { defer close(ran); _ = proxy.Run() }()
			defer func() { proxy.Close(); sc.Close(); <-ran }()

			out := framedOutput{c.out(), make(chan struct{}, 1)}
			if err := proxy.AttachOutput(out); err != nil {
				b.Fatal(err)
			}
			if err := proxy.SelectOutput("out"); err != nil {
				b.Fatal(err)
			}
			// CopyRects read no pixels; the frame and the wire model are
			// what every prepare takes.
			fb := gfx.NewFramebuffer(device.TVWidth, device.TVHeight)
			ws := rfb.NewWireState(rfb.NewTileCache(0), device.TVWidth, device.TVHeight)
			update := func(r gfx.Rect, damaged bool) {
				urs := [1]rfb.UpdateRect{{Rect: r, Encoding: rfb.EncCopyRect, CopySrcX: r.X, CopySrcY: r.Y}}
				if damaged {
					urs[0].CopySrcY++
				}
				prep, err := srv.PrepareUpdateWire(fb, urs[:], ws)
				if err == nil {
					err = srv.SendPrepared(prep)
				}
				if err != nil {
					b.Fatal(err)
				}
				<-out.framed
			}
			update(full, true) // the first frame is whole, and warms the pools

			b.ReportAllocs()
			b.ResetTimer()
			px0 := pixels.Value()
			for i := 0; i < b.N; i++ {
				update(c.rect, c.damaged)
			}
			b.StopTimer()
			px := float64(pixels.Value()-px0) / float64(b.N)
			if (px == 0) == c.damaged {
				b.Fatalf("%s presented %.0f px/op", c.name, px)
			}
			b.ReportMetric(px, "px/op")
		})
	}
}
