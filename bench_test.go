package uniint

// The in-process experiment table. The paper (a short paper) has no
// quantitative tables or figures; these benchmarks generate the numbers
// its claims imply. `go test -run NONE -bench . -benchtime 100x .` prints
// the table, internal/benchfmt parses it and cmd/benchgate compares the
// gated rows with BENCH_BASELINE.json; the end-to-end numbers (two
// processes, a real socket) come from cmd/uniload. This header is the
// experiment index — id, benchmark, and the paper claim it puts a number
// on:
//
//	E1  BenchmarkE1InputLatency      any device drives any appliance: device event → appliance action, per input device
//	E2  BenchmarkE2Encoding          a stock thin-client protocol suffices: bytes and CPU per encoding and content class
//	E3  BenchmarkE3OutputConvert     the proxy adapts the bitmap to the device: output plug-in conversion per device
//	E4  BenchmarkE4Switch            devices switch while the session continues: input/output switching latency
//	E5  BenchmarkE5Compose           one composed GUI for the whole home: generation cost vs appliance count
//	E6  BenchmarkE6Havi              appliances stay stock HAVi: middleware primitives
//	E7  BenchmarkE7HotPlug           appliances come and go: bus attach/detach → GUI regeneration
//	E8  BenchmarkE8SessionBandwidth  small devices get small streams: bytes per scripted session, per output device
//	E9  BenchmarkE9Ablation          conversion belongs in the proxy: proxy-side vs server-side conversion, k devices
//	E10 BenchmarkE10Recognition      voice and gesture are just input plug-ins: recognition cost
//	E11 BenchmarkE11ShapedLink       usable over era home links: E1 over simulated 802.11b / Bluetooth hops
//	E12 BenchmarkInputFlood          (input_bench_test.go) a pointer flood coalesces instead of queueing
//
// The E2b family and the unnumbered benchmarks in the sibling *_bench_test.go
// files measure this implementation's own tiers (pooled/adaptive encode,
// wire tiles, render, input batching, park/resume, hub, federation,
// footprint); docs/ARCHITECTURE.md describes each tier next to its numbers.

import (
	"fmt"
	"net"
	"strconv"
	"testing"
	"time"

	"uniint/internal/appliance"
	"uniint/internal/core"
	"uniint/internal/device"
	"uniint/internal/gfx"
	"uniint/internal/havi"
	"uniint/internal/havi/fcm"
	"uniint/internal/homeapp"
	"uniint/internal/hub"
	"uniint/internal/metrics"
	"uniint/internal/netsim"
	"uniint/internal/rfb"
	"uniint/internal/situation"
	"uniint/internal/toolkit"
	"uniint/internal/uniserver"
	"uniint/internal/workload"
)

// benchSession builds a lamp session with every interaction device
// attached, plus a latch channel firing on each lamp power change.
func benchSession(b *testing.B) (*Session, *benchDevices, chan int) {
	b.Helper()
	lamp := appliance.NewLamp("Bench Lamp")
	s, err := NewSession(Options{Appliances: []appliance.Appliance{lamp}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)

	d := &benchDevices{
		pda:     device.NewPDA("pda-1"),
		phone:   device.NewPhone("phone-1"),
		voice:   device.NewVoiceInput("voice-1"),
		remote:  device.NewRemoteControl("remote-1"),
		gesture: device.NewGestureInput("gesture-1"),
		tv:      device.NewTVDisplay("tv-1"),
	}
	for _, in := range []core.InputDevice{d.pda, d.phone, d.voice, d.remote, d.gesture} {
		if err := s.Proxy.AttachInput(in); err != nil {
			b.Fatal(err)
		}
	}
	for _, out := range []core.OutputDevice{d.pda, d.phone, d.tv} {
		if err := s.Proxy.AttachOutput(out); err != nil {
			b.Fatal(err)
		}
	}

	latch := make(chan int, 256)
	powerSEID := lamp.Bulb().SEID()
	s.Home.Network().Events().Subscribe(havi.EventFCMChanged, func(ev havi.Event) {
		if ev.Source == powerSEID && ev.Key == fcm.CtlPower {
			select {
			case latch <- ev.Value:
			default:
			}
		}
	})
	return s, d, latch
}

type benchDevices struct {
	pda     *device.PDA
	phone   *device.Phone
	voice   *device.VoiceInput
	remote  *device.RemoteControl
	gesture *device.GestureInput
	tv      *device.TVDisplay
}

func awaitLatch(b *testing.B, latch chan int) {
	b.Helper()
	select {
	case <-latch:
	case <-time.After(5 * time.Second):
		b.Fatal("timed out waiting for appliance reaction")
	}
}

// BenchmarkE1InputLatency measures the complete universal input path per
// device class: device event → plug-in translation → universal event →
// wire → server → toolkit → widget → middleware message → FCM state
// change. One op = one appliance state change.
func BenchmarkE1InputLatency(b *testing.B) {
	classes := []struct {
		name string
		act  func(d *benchDevices)
	}{
		{"phone", func(d *benchDevices) { d.phone.PressKey("ok") }},
		{"voice", func(d *benchDevices) { d.voice.Say("toggle") }},
		{"remote", func(d *benchDevices) { d.remote.Press("ok") }},
		{"gesture", func(d *benchDevices) { d.gesture.EmitStroke(device.StrokeTap) }},
	}
	for _, c := range classes {
		b.Run(c.name, func(b *testing.B) {
			s, d, latch := benchSession(b)
			if err := s.Proxy.SelectInputByClass(c.name); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.act(d)
				awaitLatch(b, latch)
			}
		})
	}
	b.Run("pda", func(b *testing.B) {
		s, d, latch := benchSession(b)
		if err := s.Proxy.SelectInput("pda-1"); err != nil {
			b.Fatal(err)
		}
		s.Display.Render()
		foc := s.Display.Focus()
		if foc == nil {
			b.Fatal("no focusable widget")
		}
		bb := foc.Bounds()
		x, y := (bb.X+4)/2, (bb.Y+4)/2
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.pda.Tap(x, y)
			awaitLatch(b, latch)
		}
	})
}

// BenchmarkE2Encoding measures the universal interaction protocol's
// encodings on each content class, full-frame and widget-damage, at the
// server geometry. The bytes/frame metric is the bandwidth side of the
// trade-off; ns/op is the CPU side.
func BenchmarkE2Encoding(b *testing.B) {
	frames := workload.Frames(640, 480)
	damage := workload.WidgetDamage(gfx.R(0, 0, 640, 480), 8, 5)
	for _, enc := range []int32{rfb.EncRaw, rfb.EncRRE, rfb.EncHextile, rfb.EncZlib} {
		for _, content := range []string{"flat", "gui", "text", "noise"} {
			frame := frames[content]
			b.Run(fmt.Sprintf("%s/%s/full", rfb.EncodingName(enc), content), func(b *testing.B) {
				benchEncode(b, enc, frame, []gfx.Rect{frame.Bounds()})
			})
			b.Run(fmt.Sprintf("%s/%s/widgets", rfb.EncodingName(enc), content), func(b *testing.B) {
				benchEncode(b, enc, frame, damage)
			})
		}
	}
}

func benchEncode(b *testing.B, enc int32, frame *gfx.Framebuffer, rects []gfx.Rect) {
	pf := gfx.PF32()
	var total int
	var body []byte // reused across iterations: the steady-state encode path
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		total = 0
		body = body[:0]
		for _, r := range rects {
			start := len(body)
			out, err := rfb.EncodeRectInto(body, enc, frame, r, pf)
			if err != nil {
				b.Fatal(err)
			}
			body = out
			total += len(body) - start
		}
	}
	b.ReportMetric(float64(total), "bytes/update")
}

// BenchmarkE2bAdaptive measures the adaptive encoder end to end: per-rect
// content probe plus encode with the chosen encoding, on pooled scratch
// with a reused output buffer (steady state: zero allocations).
func BenchmarkE2bAdaptive(b *testing.B) {
	frames := workload.Frames(640, 480)
	damage := workload.WidgetDamage(gfx.R(0, 0, 640, 480), 8, 5)
	pf := gfx.PF32()
	for _, content := range []string{"flat", "gui", "text", "noise"} {
		frame := frames[content]
		b.Run(content+"/full", func(b *testing.B) {
			var body []byte
			var total int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				enc := rfb.AdaptiveEncoding(frame, frame.Bounds())
				out, err := rfb.EncodeRectInto(body[:0], enc, frame, frame.Bounds(), pf)
				if err != nil {
					b.Fatal(err)
				}
				body, total = out, len(out)
			}
			b.ReportMetric(float64(total), "bytes/update")
		})
		b.Run(content+"/widgets", func(b *testing.B) {
			var body []byte
			var total int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				body = body[:0]
				total = 0
				for _, r := range damage {
					enc := rfb.AdaptiveEncoding(frame, r)
					out, err := rfb.EncodeRectInto(body, enc, frame, r, pf)
					if err != nil {
						b.Fatal(err)
					}
					total += len(out) - len(body)
					body = out
				}
			}
			b.ReportMetric(float64(total), "bytes/update")
		})
	}
}

// BenchmarkE2bPooled isolates the pooled encode path on the churn damage
// shape: widget-sized rects of a GUI frame, one reused destination
// buffer, every encoding. Zero allocs/op steady-state is the contract.
func BenchmarkE2bPooled(b *testing.B) {
	frame := workload.GUIFrame(640, 480)
	churn := workload.NewScreenChurn(frame.Bounds(), 8, 11)
	// Pre-apply some churn so the spots hold their mid-session content.
	for i := 0; i < 64; i++ {
		churn.Apply(frame, churn.Next())
	}
	damage := make([]gfx.Rect, 0, len(churn.Spots))
	for _, s := range churn.Spots {
		damage = append(damage, s.Rect)
	}
	pf := gfx.PF32()
	for _, enc := range []int32{rfb.EncRaw, rfb.EncRRE, rfb.EncHextile} {
		b.Run(rfb.EncodingName(enc), func(b *testing.B) {
			var body []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				body = body[:0]
				for _, r := range damage {
					out, err := rfb.EncodeRectInto(body, enc, frame, r, pf)
					if err != nil {
						b.Fatal(err)
					}
					body = out
				}
			}
		})
	}
}

// BenchmarkE2bBackpressure drives the screen-churn workload through a
// hub-hosted home against a latency-shaped client and measures the
// coalescing pipeline: one op is one churn mutation, while the demand
// loop drains as fast as the link allows. updates/op < 1 is the
// coalescing win; rects-coalesced/op counts damage merged into pending
// flushes.
func BenchmarkE2bBackpressure(b *testing.B) {
	var sess *HubSession
	h, err := hub.New(hub.Options{
		Metrics: metrics.NewRegistry(),
		Factory: func(homeID string) (hub.Host, error) {
			s, err := NewSessionForHub(Options{Width: 320, Height: 240, Name: homeID})
			if err != nil {
				return nil, err
			}
			sess = s
			return s, nil
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	if _, err := h.Admit("churn-home"); err != nil {
		b.Fatal(err)
	}

	// The home's screen: one label per churn spot.
	churn := workload.NewScreenChurn(gfx.R(0, 0, 320, 240), 8, 3)
	labels := make([]*toolkit.Label, len(churn.Spots))
	root := toolkit.NewPanel(toolkit.VBox{Gap: 2, Padding: 4})
	for i := range labels {
		labels[i] = toolkit.NewLabel("spot ----")
		root.Add(labels[i])
	}
	sess.Display.SetRoot(root)

	// Route a raw protocol client through the hub preamble over a
	// wifi-class link; its demand loop re-requests after every update.
	clientSide, serverSide := net.Pipe()
	routeErr := make(chan error, 1)
	go func() { routeErr <- h.ServeConn(serverSide) }()
	shaped := netsim.Wrap(clientSide, netsim.WithLatency(time.Millisecond))
	if err := hub.WritePreamble(shaped, "churn-home"); err != nil {
		b.Fatal(err)
	}
	client, err := rfb.Dial(shaped)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	full := gfx.R(0, 0, 320, 240)
	go client.Run(rearmHandler{client: client, region: full})
	if err := client.RequestUpdate(false, full); err != nil {
		b.Fatal(err)
	}

	snap := func(name string) int64 { return metrics.Default().Counter(name).Value() }
	updates0 := snap("server_updates_sent_total")
	coalesced0 := snap("server_rects_coalesced_total")
	bytes0 := snap("server_update_bytes_total")

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := churn.Next()
		sess.Display.Update(func() { labels[st.Spot].SetText(st.Text) })
	}
	// Drain: wait until the client stops receiving.
	prev := int64(-1)
	for {
		cur := client.BytesReceived()
		if cur == prev {
			break
		}
		prev = cur
		time.Sleep(3 * time.Millisecond)
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(snap("server_updates_sent_total")-updates0)/n, "updates/op")
	b.ReportMetric(float64(snap("server_rects_coalesced_total")-coalesced0)/n, "coalesced-rects/op")
	b.ReportMetric(float64(snap("server_update_bytes_total")-bytes0)/n, "bytes/op")
}

// rearmHandler keeps the demand-driven update loop rolling: every update
// immediately triggers the next incremental request, the viewer behaviour
// the backpressure path is designed against.
type rearmHandler struct {
	client *rfb.ClientConn
	region gfx.Rect
}

func (h rearmHandler) Updated([]gfx.Rect) { _ = h.client.RequestUpdate(true, h.region) }
func (h rearmHandler) Bell()              {}
func (h rearmHandler) CutText(string)     {}

// BenchmarkE3OutputConvert isolates the output plug-in conversion cost per
// device class on GUI content at server geometry.
func BenchmarkE3OutputConvert(b *testing.B) {
	frame := workload.GUIFrame(640, 480)
	plugins := map[string]core.OutputPlugin{
		"tv":    device.NewTVDisplay("t").OutputPlugin(),
		"pda":   device.NewPDA("p").OutputPlugin(),
		"phone": device.NewPhone("f").OutputPlugin(),
	}
	for _, name := range []string{"tv", "pda", "phone"} {
		pl := plugins[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f := pl.Convert(frame)
				if f.W == 0 {
					b.Fatal("empty frame")
				}
			}
		})
	}
}

// BenchmarkE4Switch measures dynamic device switching (characteristic
// C2). Input switching is bookkeeping only; output switching renegotiates
// the pixel format and requests a full update.
func BenchmarkE4Switch(b *testing.B) {
	b.Run("input", func(b *testing.B) {
		s, _, _ := benchSession(b)
		ids := []string{"phone-1", "voice-1"}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Proxy.SelectInput(ids[i%2]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("output", func(b *testing.B) {
		s, _, _ := benchSession(b)
		ids := []string{"pda-1", "tv-1"}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Proxy.SelectOutput(ids[i%2]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("situation-rule-eval", func(b *testing.B) {
		s, _, _ := benchSession(b)
		eng := situation.NewEngine(s.Proxy, situation.DefaultRules())
		sits := []situation.Situation{
			{Location: "kitchen", HandsBusy: true},
			{Location: "livingroom", Activity: "watching_tv", Seated: true},
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.SetSituation(sits[i%2])
		}
	})
}

// BenchmarkE5Compose measures composed-GUI generation time against the
// number of available appliances (the paper: "the application generates
// the composed GUI for TV and VCR if both are currently available").
func BenchmarkE5Compose(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		b.Run(strconv.Itoa(n)+"-appliances", func(b *testing.B) {
			home := appliance.NewHome()
			defer home.Close()
			for i := 0; i < n; i++ {
				var a appliance.Appliance
				switch i % 3 {
				case 0:
					a = appliance.NewTV(fmt.Sprintf("TV-%d", i))
				case 1:
					a = appliance.NewVCR(fmt.Sprintf("VCR-%d", i))
				default:
					a = appliance.NewLamp(fmt.Sprintf("Lamp-%d", i))
				}
				if _, err := home.Add(a); err != nil {
					b.Fatal(err)
				}
			}
			home.Network().WaitIdle()
			display := toolkit.NewDisplay(640, 480)
			app := homeapp.New(home.Network(), display)
			defer app.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				app.Rebuild()
				display.Render()
			}
		})
	}
}

// BenchmarkE6Havi measures the middleware primitives underneath
// everything: registry queries, synchronous control messages and event
// fan-out.
func BenchmarkE6Havi(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("registry-query/%d-elements", n), func(b *testing.B) {
			net := havi.NewNetwork()
			defer net.Close()
			for i := 0; i < n/2; i++ {
				d := havi.NewDCM(fmt.Sprintf("dev-%d", i), "lamp")
				f := fcm.NewLamp()
				d.AddFCM(f)
				if _, err := net.Attach(d); err != nil {
					b.Fatal(err)
				}
			}
			net.WaitIdle()
			match := map[string]string{"type": "fcm", "kind": "lamp"}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := net.Registry().Query(match); len(got) == 0 {
					b.Fatal("query returned nothing")
				}
			}
		})
	}
	b.Run("message-call", func(b *testing.B) {
		net := havi.NewNetwork()
		defer net.Close()
		f := fcm.NewLamp()
		d := havi.NewDCM("lamp", "lamp")
		d.AddFCM(f)
		if _, err := net.Attach(d); err != nil {
			b.Fatal(err)
		}
		msg := havi.Message{Dst: f.SEID(), Op: havi.OpGet, Key: fcm.CtlPower}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := net.Messages().Call(msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, subs := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("event-fanout/%d-subscribers", subs), func(b *testing.B) {
			net := havi.NewNetwork()
			defer net.Close()
			for i := 0; i < subs; i++ {
				net.Events().Subscribe(havi.EventFCMChanged, func(havi.Event) {})
			}
			ev := havi.Event{Type: havi.EventFCMChanged, Key: "power", Value: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Events().Post(ev)
			}
			b.StopTimer()
			net.WaitIdle()
		})
	}
}

// BenchmarkE7HotPlug measures discovery-to-GUI latency: plugging an
// appliance in (bus reset → registration → device.attached → GUI
// regeneration) and unplugging it again. One op = one full plug/unplug
// cycle with the GUI settled after each step.
func BenchmarkE7HotPlug(b *testing.B) {
	home, err := appliance.StandardHome()
	if err != nil {
		b.Fatal(err)
	}
	defer home.Close()
	display := toolkit.NewDisplay(640, 480)
	app := homeapp.New(home.Network(), display)
	defer app.Close()
	home.Network().WaitIdle()

	lamp := appliance.NewLamp("Plug Lamp")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := home.Add(lamp); err != nil {
			b.Fatal(err)
		}
		home.Network().WaitIdle() // GUI regenerated with the lamp
		home.Remove(lamp)
		home.Network().WaitIdle() // GUI regenerated without it
	}
}

// BenchmarkE8SessionBandwidth replays the canonical 30-interaction
// session against each output device class and reports protocol bytes per
// session. The device's preferred pixel format (32/16/8 bpp for
// tv/pda/phone) is what produces the per-device bandwidth differences.
func BenchmarkE8SessionBandwidth(b *testing.B) {
	for _, out := range []string{"tv", "pda", "phone"} {
		b.Run(out, func(b *testing.B) {
			s, d, _ := benchSession(b)
			if err := s.Proxy.SelectInput("phone-1"); err != nil {
				b.Fatal(err)
			}
			var outID string
			switch out {
			case "tv":
				outID = "tv-1"
			case "pda":
				outID = "pda-1"
			case "phone":
				outID = "phone-1"
			}
			if err := s.Proxy.SelectOutput(outID); err != nil {
				b.Fatal(err)
			}
			script := workload.StandardSession()
			settle := func() {
				// Wait for protocol quiescence: byte counters stable.
				prev := int64(-1)
				for {
					cur := s.Proxy.Client().BytesReceived()
					if cur == prev {
						return
					}
					prev = cur
					time.Sleep(2 * time.Millisecond)
				}
			}
			settle()
			b.ResetTimer()
			var bytes int64
			for i := 0; i < b.N; i++ {
				start := s.Proxy.Client().BytesReceived()
				// Settle per step so every interaction's repaint ships
				// individually; coalesced repaints would make bytes/session
				// depend on timing.
				for _, st := range script {
					d.phone.PressKey(st.Arg)
					settle()
				}
				bytes = s.Proxy.Client().BytesReceived() - start
			}
			b.ReportMetric(float64(bytes), "bytes/session")
		})
	}
}

// BenchmarkE9Ablation compares the paper's proxy-side conversion design
// against the alternative of rendering per-device at the server, with k
// devices observing one session. Paper design: the server encodes the
// desktop once; each device's proxy converts locally (1 encode + k
// converts). Server-side design: the server converts and encodes a
// separate stream per device (k converts + k encodes).
func BenchmarkE9Ablation(b *testing.B) {
	frame := workload.GUIFrame(640, 480)
	pdaPlugin := device.NewPDA("p").OutputPlugin()
	pf := gfx.PF32()
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("proxy-side/%d-devices", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rfb.EncodeRectInto(nil, rfb.EncHextile, frame, frame.Bounds(), pf); err != nil {
					b.Fatal(err)
				}
				for j := 0; j < k; j++ {
					pdaPlugin.Convert(frame)
				}
			}
		})
		b.Run(fmt.Sprintf("server-side/%d-devices", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := 0; j < k; j++ {
					f := pdaPlugin.Convert(frame)
					if _, err := rfb.EncodeRectInto(nil, rfb.EncHextile, f.RGB, f.RGB.Bounds(), pf); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkE11ShapedLink measures the end-to-end input path of E1 over
// simulated home links (netsim): an uncapped in-process pipe, a ~5 ms
// 802.11b-class wireless hop, and a ~20 ms Bluetooth-class hop. One op =
// one appliance state change including the link round trips.
func BenchmarkE11ShapedLink(b *testing.B) {
	links := []struct {
		name string
		opts []netsim.Option
	}{
		{"direct", nil},
		{"wifi-5ms", []netsim.Option{netsim.WithLatency(5 * time.Millisecond)}},
		{"bt-20ms", []netsim.Option{netsim.WithLatency(20 * time.Millisecond)}},
	}
	for _, link := range links {
		b.Run(link.name, func(b *testing.B) {
			lamp := appliance.NewLamp("Link Lamp")
			home := appliance.NewHome()
			if _, err := home.Add(lamp); err != nil {
				b.Fatal(err)
			}
			defer home.Close()
			home.Network().WaitIdle()
			display := toolkit.NewDisplay(640, 480)
			app := homeapp.New(home.Network(), display)
			defer app.Close()
			srv := uniserver.New(display, "shaped", uniserver.Config{})
			defer srv.Close()

			// One shaped wrap covers both directions (Wrap is symmetric);
			// wrapping both pipe ends would shape every byte twice.
			sc, cc := net.Pipe()
			go srv.Attach(sc)
			proxy, err := core.Dial(netsim.Wrap(cc, link.opts...))
			if err != nil {
				b.Fatal(err)
			}
			defer proxy.Close()
			go proxy.Run()

			phone := device.NewPhone("phone-1")
			defer phone.Close()
			if err := proxy.AttachInput(phone); err != nil {
				b.Fatal(err)
			}
			if err := proxy.SelectInput("phone-1"); err != nil {
				b.Fatal(err)
			}

			latch := make(chan int, 64)
			seid := lamp.Bulb().SEID()
			home.Network().Events().Subscribe(havi.EventFCMChanged, func(ev havi.Event) {
				if ev.Source == seid && ev.Key == fcm.CtlPower {
					select {
					case latch <- ev.Value:
					default:
					}
				}
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				phone.PressKey("ok")
				awaitLatch(b, latch)
			}
		})
	}
}

// BenchmarkE10Recognition measures the advanced-device recognition paths:
// the voice grammar and the gesture trajectory classifier.
func BenchmarkE10Recognition(b *testing.B) {
	b.Run("voice-grammar", func(b *testing.B) {
		corpus := []string{
			"next", "move down", "turn it up twice", "select",
			"please press the button", "completely unknown utterance here",
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			device.RecognizeUtterance(corpus[i%len(corpus)])
		}
	})
	b.Run("gesture-classify", func(b *testing.B) {
		stroke := make([]device.Point, 32)
		for i := range stroke {
			stroke[i] = device.Point{X: 10 + i*3, Y: 50 + (i % 3)}
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := device.ClassifyStroke(stroke); !ok {
				b.Fatal("stroke not classified")
			}
		}
	})
}
