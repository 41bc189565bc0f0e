package uniint

// Session-resilience benchmarks (gated in CI alongside the macro set):
//
//	BenchmarkResume   park → reclaim → incremental resync, one cycle
//	BenchmarkE2bRoam  device hops across hub-hosted homes (drop, redial,
//	                  resume or cold join) under the roam workload shape
//
// One Resume op is the full failure-path round trip: detach-window
// damage lands, a client reconnects with its token, the handshake
// reclaims the parked session, the resync ships, and the disconnect
// parks the session again for the next op.

import (
	"net"
	"sync"
	"testing"
	"time"

	"uniint/internal/appliance"
	"uniint/internal/core"
	"uniint/internal/device"
	"uniint/internal/gfx"
	"uniint/internal/hub"
	"uniint/internal/metrics"
	"uniint/internal/netsim"
	"uniint/internal/rfb"
	"uniint/internal/toolkit"
	"uniint/internal/uniserver"
	"uniint/internal/workload"
)

// resumeBenchHandler signals received updates and re-arms the demand
// loop so every disconnect leaves an incremental request parked.
type resumeBenchHandler struct {
	client *rfb.ClientConn
	region gfx.Rect
	got    chan struct{}
}

func (h resumeBenchHandler) Updated([]gfx.Rect) {
	select {
	case h.got <- struct{}{}:
	default:
	}
	_ = h.client.RequestUpdate(true, h.region)
}
func (resumeBenchHandler) Bell()          {}
func (resumeBenchHandler) CutText(string) {}

func BenchmarkResume(b *testing.B) {
	display := toolkit.NewDisplay(320, 240)
	srv := uniserver.New(display, "resume-bench", nil)
	defer srv.Close()
	lbl := toolkit.NewLabel("resume bench")
	root := toolkit.NewPanel(toolkit.VBox{Gap: 4, Padding: 4})
	root.Add(lbl)
	display.SetRoot(root)
	display.Render()
	full := gfx.R(0, 0, 320, 240)

	waitParked := func() {
		for srv.Parked() != 1 {
			time.Sleep(20 * time.Microsecond)
		}
	}
	texts := [2]string{"state A", "state B"}

	// Prime: join, full paint, leave an incremental request parked, park.
	sc, cc := net.Pipe()
	go srv.Attach(sc)
	prime, err := rfb.Dial(cc)
	if err != nil {
		b.Fatal(err)
	}
	got := make(chan struct{}, 1)
	go prime.Run(resumeBenchHandler{prime, full, got})
	if err := prime.RequestUpdate(false, full); err != nil {
		b.Fatal(err)
	}
	<-got
	prime.Close()
	waitParked()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Detach-window damage accumulates in the parked session.
		display.Update(func() { lbl.SetText(texts[i%2]) })

		sc, cc := net.Pipe()
		go srv.Attach(sc)
		client, err := rfb.DialResume(cc, prime)
		if err != nil {
			b.Fatal(err)
		}
		if !client.Resumed() {
			b.Fatal("resume missed")
		}
		got := make(chan struct{}, 1)
		go client.Run(resumeBenchHandler{client, full, got})
		// Covers both orderings: the parked request may already have
		// shipped the resync during resume; otherwise this drains it.
		_ = client.RequestUpdate(true, full)
		<-got
		client.Close()
		waitParked()
	}
}

// BenchmarkE2bRoam drives the roam workload's hop through the hub: one
// op retargets the proxy's dial, kills the live link, and waits for the
// re-established session (the redial is immediate and usually outruns the
// park; the presented token takes the still-live session over, so the
// in-place hop reliably resumes) and, after a cold join, for its first
// frame on the TV. With one home every hop resumes in place; with 16
// homes every hop leaves a parked session behind and joins the next home
// cold (the parked one waits out its TTL or its owner's return).
func BenchmarkE2bRoam(b *testing.B) {
	for _, homes := range []int{1, 16} {
		name := "1-home"
		if homes > 1 {
			name = "16-homes"
		}
		b.Run(name, func(b *testing.B) {
			h, err := hub.New(hub.Options{
				Metrics: metrics.NewRegistry(),
				Factory: func(homeID string) (hub.Host, error) {
					return NewSessionForHub(Options{
						Width: 160, Height: 120, Name: homeID,
						Appliances: []appliance.Appliance{appliance.NewLamp("Lamp " + homeID)},
					})
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer h.Close()

			var mu sync.Mutex
			target := workload.HomeID(0)
			var link *netsim.Conn
			dial := func() (net.Conn, error) {
				mu.Lock()
				home := target
				mu.Unlock()
				sc, cc := net.Pipe()
				go h.ServeConn(sc)
				c := netsim.Wrap(cc)
				if err := hub.WritePreamble(c, home); err != nil {
					c.Close()
					return nil, err
				}
				mu.Lock()
				link = c
				mu.Unlock()
				return c, nil
			}
			proxy, err := core.Connect(dial, core.WithBackoff(time.Millisecond))
			if err != nil {
				b.Fatal(err)
			}
			defer proxy.Close()
			tv := device.NewTVDisplay("roam-tv")
			if err := proxy.AttachOutput(tv); err != nil {
				b.Fatal(err)
			}
			if err := proxy.SelectOutput(tv.ID()); err != nil {
				b.Fatal(err)
			}
			tv.WaitFrames(1) // initial full paint presented

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				before, frames := proxy.Reconnects(), tv.FrameCount()
				mu.Lock()
				target = workload.HomeID((i + 1) % homes)
				l := link
				mu.Unlock()
				l.DropLink()
				for proxy.Reconnects() == before {
					time.Sleep(20 * time.Microsecond)
				}
				// A cold join is done when its full repaint is presented;
				// FrameCount, unlike WaitFrames, copies no panel.
				for !proxy.Resumed() && tv.FrameCount() == frames {
					time.Sleep(20 * time.Microsecond)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(proxy.Resumes())/float64(b.N), "resumes/op")
		})
	}
}
