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
// the selected one converts and the device takes the frame. The update is
// a self-CopyRect (what a device switch ships): it encodes to 4 bytes and
// decodes to a row-wise copy of the rectangle onto itself, so the op is the
// present path plus one net.Pipe hop, whatever the pixels are. px/op is
// proxy_present_pixels_total per update — the damage on the TV's
// pass-through path, the whole panel on the PDA's scaled one. allocs/op
// counts the whole process, so the TV rows show what the scripted server's
// send costs (rfb.sendPreparedWire); the proxy's share of them is pinned at
// zero by internal/core's TestPresentAllocatesNothing.
func BenchmarkPresent(b *testing.B) {
	widget := gfx.R(16, 40, 608, 20) // a toggle row of the 640×480 panel
	full := gfx.R(0, 0, device.TVWidth, device.TVHeight)
	cases := []struct {
		name string
		out  func() core.OutputDevice
		rect gfx.Rect
	}{
		{"tv-widget", func() core.OutputDevice { return device.NewTVDisplay("out") }, widget},
		{"tv-full", func() core.OutputDevice { return device.NewTVDisplay("out") }, full},
		{"pda-widget", func() core.OutputDevice { return device.NewPDA("out") }, widget},
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
			update := func(r gfx.Rect) {
				urs := [1]rfb.UpdateRect{{Rect: r, Encoding: rfb.EncCopyRect, CopySrcX: r.X, CopySrcY: r.Y}}
				prep, err := srv.PrepareUpdateWire(nil, urs[:], nil)
				if err == nil {
					err = srv.SendPrepared(prep)
				}
				if err != nil {
					b.Fatal(err)
				}
				<-out.framed
			}
			update(full) // the first frame is whole, and warms the pools

			b.ReportAllocs()
			b.ResetTimer()
			px0 := pixels.Value()
			for i := 0; i < b.N; i++ {
				update(c.rect)
			}
			b.StopTimer()
			b.ReportMetric(float64(pixels.Value()-px0)/float64(b.N), "px/op")
		})
	}
}
