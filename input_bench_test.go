package uniint

// Input-pipeline benchmarks (the up-path counterpart of the E2b update
// benchmarks): client-side event batching, proxy-side move coalescing,
// and the server-side queue/dispatch path under a pointer-move flood.
//
//	BenchmarkInputBatch     one wire write per event vs per 64-event batch
//	BenchmarkInputCoalesce  proxy InjectBatch collapsing a drag flood
//	BenchmarkInputFlood     flood vs a slow appliance: coalesced dispatch,
//	                        0 allocs/op, updates/op ≪ events/op
//	BenchmarkE2bInput       InputStorm across M hub-hosted homes, e2e

import (
	"fmt"
	"net"
	"testing"
	"time"

	"uniint/internal/core"
	"uniint/internal/gfx"
	"uniint/internal/hub"
	"uniint/internal/metrics"
	"uniint/internal/rfb"
	"uniint/internal/toolkit"
	"uniint/internal/uniserver"
	"uniint/internal/workload"
)

// discardHandler is a protocol server endpoint that accepts everything
// and does nothing — the input write path in isolation.
type discardHandler struct{}

func (discardHandler) KeyEvent(rfb.KeyEvent)           {}
func (discardHandler) PointerEvent(rfb.PointerEvent)   {}
func (discardHandler) UpdateRequest(rfb.UpdateRequest) {}
func (discardHandler) CutText(string)                  {}

// discardServerClient returns a handshaked client whose peer discards
// all traffic.
func discardServerClient(b *testing.B) *rfb.ClientConn {
	b.Helper()
	client, err := rfb.Dial(discardServerConn(b))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { client.Close() })
	return client
}

// discardServerConn returns the client end of a pipe whose server end a
// protocol server that discards every client message serves.
func discardServerConn(b *testing.B) net.Conn {
	b.Helper()
	sc, cc := net.Pipe()
	go func() {
		s, err := rfb.NewEdgeServerConn(sc, 640, 480, "discard", nil)
		if err != nil {
			return
		}
		_ = s.Serve(discardHandler{})
	}()
	return cc
}

// BenchmarkInputBatch isolates the client write path: one transport
// write per event versus one per 64-event batch. The gap is the syscall
// amortization a translated burst gets for free.
func BenchmarkInputBatch(b *testing.B) {
	ev := rfb.InputEvent{IsPointer: true, Pointer: rfb.PointerEvent{Buttons: 1, X: 10, Y: 20}}
	b.Run("single", func(b *testing.B) {
		client := discardServerClient(b)
		one := []rfb.InputEvent{ev}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := client.WriteEvents(one); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch64", func(b *testing.B) {
		client := discardServerClient(b)
		evs := make([]rfb.InputEvent, 64)
		for i := range evs {
			evs[i] = ev
			evs[i].Pointer.X = uint16(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += len(evs) {
			n := len(evs)
			if rest := b.N - i; rest < n {
				n = rest
			}
			if err := client.WriteEvents(evs[:n]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// stormPlugin is a zero-allocation input plug-in: it translates the raw
// pointer vocabulary into universal events on a reused slice (legal: the
// proxy consumes the slice before the next Translate).
type stormPlugin struct {
	out [1]core.UniEvent
}

func (p *stormPlugin) Name() string  { return "storm" }
func (p *stormPlugin) Bind(w, h int) {}
func (p *stormPlugin) Translate(ev core.RawEvent) []core.UniEvent {
	var mask uint8
	if ev.Down {
		mask = 1
	}
	p.out[0] = core.PointerTo(ev.X, ev.Y, mask)
	return p.out[:]
}

// stormDevice pairs the plug-in with an inert event channel (benchmarks
// drive it through InjectBatch).
type stormDevice struct {
	id string
	pl *stormPlugin
	ch chan core.RawEvent
}

func (d *stormDevice) ID() string                    { return d.id }
func (d *stormDevice) Class() string                 { return "storm" }
func (d *stormDevice) InputPlugin() core.InputPlugin { return d.pl }
func (d *stormDevice) Events() <-chan core.RawEvent  { return d.ch }

// BenchmarkInputCoalesce measures the proxy coalescer on a drag burst:
// press + 62 intermediate moves + release injected as one batch. The
// burst collapses to 3 wire events and one transport write; steady state
// allocates nothing.
func BenchmarkInputCoalesce(b *testing.B) {
	proxy, err := core.Dial(discardServerConn(b))
	if err != nil {
		b.Fatal(err)
	}
	dev := &stormDevice{id: "storm-1", pl: &stormPlugin{}, ch: make(chan core.RawEvent)}
	if err := proxy.AttachInput(dev); err != nil {
		b.Fatal(err)
	}
	if err := proxy.SelectInput("storm-1"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(proxy.Close)

	burst := make([]core.RawEvent, 64)
	burst[0] = core.RawEvent{Kind: "ptr", X: 0, Y: 50, Down: true}
	for i := 1; i < 63; i++ {
		burst[i] = core.RawEvent{Kind: "ptr", X: i * 4, Y: 50, Down: true}
	}
	burst[63] = core.RawEvent{Kind: "ptr", X: 255, Y: 50, Down: false}

	if err := proxy.InjectBatch("storm-1", burst); err != nil { // warm
		b.Fatal(err)
	}
	st0 := proxy.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := proxy.InjectBatch("storm-1", burst); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := proxy.Stats()
	n := float64(b.N)
	b.ReportMetric(float64(len(burst)), "events/op")
	b.ReportMetric(float64(st.UniversalSent-st0.UniversalSent)/n, "forwarded/op")
	b.ReportMetric(float64(st.EventsCoalesced-st0.EventsCoalesced)/n, "coalesced/op")
	b.ReportMetric(float64(st.BatchesFlushed-st0.BatchesFlushed)/n, "writes/op")
}

// BenchmarkInputFlood is the acceptance benchmark for the input→update
// control pipeline: a pointer-move flood drags a slider whose appliance
// reaction is slow (50µs per change, a HAVi round-trip stand-in). One op
// is one move written to the wire. The read loop absorbs the flood, the
// per-session queue coalesces it under the backpressure, and dispatch +
// updates land at a small fraction of the event rate with zero
// steady-state allocations.
func BenchmarkInputFlood(b *testing.B) {
	display := toolkit.NewDisplay(320, 240)
	slider := toolkit.NewSlider("drag", 0, 99, 50, func(int) {
		time.Sleep(50 * time.Microsecond) // slow appliance reaction
	})
	root := toolkit.NewPanel(toolkit.VBox{Gap: 4, Padding: 6})
	root.Add(slider)
	display.SetRoot(root)
	display.Render()

	srv := uniserver.New(display, "flood", nil)
	defer srv.Close()
	sc, cc := net.Pipe()
	go srv.Attach(sc)
	client, err := rfb.Dial(cc)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	full := gfx.R(0, 0, 320, 240)
	go client.Run(rearmHandler{client: client, region: full})
	if err := client.RequestUpdate(false, full); err != nil {
		b.Fatal(err)
	}

	reg := metrics.Default()
	queued := reg.Counter("input_queued_total")
	dispatched := reg.Counter("input_dispatched_total")
	coalesced := reg.Counter("input_coalesced_total")
	updates := reg.Counter("server_updates_sent_total")
	drainTo := func(disp0, coal0, target int64) {
		for dispatched.Value()-disp0+coalesced.Value()-coal0 < target {
			time.Sleep(50 * time.Microsecond)
		}
	}

	// Grab the slider; every subsequent move is a drag.
	tb := slider.Bounds()
	cy := uint16(tb.Y + tb.H/2)
	disp0, coal0 := dispatched.Value(), coalesced.Value()
	press := []rfb.InputEvent{{IsPointer: true, Pointer: rfb.PointerEvent{
		Buttons: 1, X: uint16(tb.X + 8), Y: cy}}}
	if err := client.WriteEvents(press); err != nil {
		b.Fatal(err)
	}

	var sent int64 = 1
	batch := make([]rfb.InputEvent, 0, 32)
	seq := 0
	move := func() {
		seq++
		batch = append(batch, rfb.InputEvent{IsPointer: true, Pointer: rfb.PointerEvent{
			Buttons: 1, X: uint16(tb.X + 8 + seq%(tb.W-16)), Y: cy}})
		if len(batch) == cap(batch) {
			if err := client.WriteEvents(batch); err != nil {
				b.Fatal(err)
			}
			sent += int64(len(batch))
			batch = batch[:0]
		}
	}
	// Warm the whole path (pools, queue storage, timers) and drain.
	for i := 0; i < 256; i++ {
		move()
	}
	if err := client.WriteEvents(batch); err != nil {
		b.Fatal(err)
	}
	sent += int64(len(batch))
	batch = batch[:0]
	drainTo(disp0, coal0, sent)

	q0, d0, c0, u0 := queued.Value(), dispatched.Value(), coalesced.Value(), updates.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		move()
	}
	if len(batch) > 0 {
		if err := client.WriteEvents(batch); err != nil {
			b.Fatal(err)
		}
	}
	drainTo(d0, c0, int64(b.N))
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(queued.Value()-q0)/n, "events/op")
	b.ReportMetric(float64(dispatched.Value()-d0)/n, "dispatched/op")
	b.ReportMetric(float64(coalesced.Value()-c0)/n, "coalesced/op")
	b.ReportMetric(float64(updates.Value()-u0)/n, "updates/op")
}

// BenchmarkE2bInput drives the InputStorm workload end to end — wire →
// read loop → queue → dispatch → widget drag → damage → clipped repaint →
// adaptive encode — across M hub-hosted homes. One op is one storm step.
func BenchmarkE2bInput(b *testing.B) {
	for _, homes := range []int{1, 16} {
		b.Run(fmt.Sprintf("%d-homes", homes), func(b *testing.B) {
			sessions := make(map[string]*HubSession, homes)
			h, err := hub.New(hub.Options{
				Metrics: metrics.NewRegistry(),
				Factory: func(homeID string) (hub.Host, error) {
					s, err := NewSessionForHub(Options{Width: 320, Height: 240, Name: homeID})
					if err != nil {
						return nil, err
					}
					sessions[homeID] = s
					return s, nil
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer h.Close()

			clients := make([]*rfb.ClientConn, homes)
			full := gfx.R(0, 0, 320, 240)
			for i := 0; i < homes; i++ {
				id := fmt.Sprintf("storm-home-%d", i)
				if _, err := h.Admit(id); err != nil {
					b.Fatal(err)
				}
				// Each home's panel: a column of sliders to drag.
				root := toolkit.NewPanel(toolkit.VBox{Gap: 4, Padding: 6})
				for j := 0; j < 4; j++ {
					root.Add(toolkit.NewSlider(fmt.Sprintf("ch %d", j), 0, 99, 50, nil))
				}
				sessions[id].Display.SetRoot(root)

				clientSide, serverSide := net.Pipe()
				go h.ServeConn(serverSide)
				if err := hub.WritePreamble(clientSide, id); err != nil {
					b.Fatal(err)
				}
				client, err := rfb.Dial(clientSide)
				if err != nil {
					b.Fatal(err)
				}
				defer client.Close()
				go client.Run(rearmHandler{client: client, region: full})
				if err := client.RequestUpdate(false, full); err != nil {
					b.Fatal(err)
				}
				clients[i] = client
			}

			reg := metrics.Default()
			queued := reg.Counter("input_queued_total")
			dispatched := reg.Counter("input_dispatched_total")
			coalesced := reg.Counter("input_coalesced_total")
			updates := reg.Counter("server_updates_sent_total")

			// The storm walks the upper half of the panel, where the
			// sliders are laid out.
			storm := workload.NewInputStorm(homes, 320, 120, 16, 23)
			wire := make([]rfb.InputEvent, 1)
			var sent int64
			step := func() {
				st := storm.Next()
				if st.Pointer() {
					wire[0] = rfb.InputEvent{IsPointer: true, Pointer: rfb.PointerEvent{
						Buttons: st.Buttons, X: uint16(st.X), Y: uint16(st.Y)}}
				} else {
					wire[0] = rfb.InputEvent{Key: rfb.KeyEvent{Down: st.Down, Key: st.Key}}
				}
				if err := clients[st.Home].WriteEvents(wire); err != nil {
					b.Fatal(err)
				}
				sent++
			}
			d0, c0 := dispatched.Value(), coalesced.Value()
			for i := 0; i < 128; i++ { // warm pools, queues, renderers
				step()
			}
			for dispatched.Value()-d0+coalesced.Value()-c0 < sent {
				time.Sleep(50 * time.Microsecond)
			}

			q0, u0 := queued.Value(), updates.Value()
			d0, c0 = dispatched.Value(), coalesced.Value()
			sent = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			for dispatched.Value()-d0+coalesced.Value()-c0 < sent {
				time.Sleep(50 * time.Microsecond)
			}
			b.StopTimer()
			n := float64(b.N)
			b.ReportMetric(float64(queued.Value()-q0)/n, "events/op")
			b.ReportMetric(float64(dispatched.Value()-d0)/n, "dispatched/op")
			b.ReportMetric(float64(coalesced.Value()-c0)/n, "coalesced/op")
			b.ReportMetric(float64(updates.Value()-u0)/n, "updates/op")
		})
	}
}
