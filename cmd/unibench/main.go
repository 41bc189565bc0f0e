// Command unibench runs the experiment suite E1–E12 (DESIGN.md §4) in
// process and prints one table per experiment. EXPERIMENTS.md records a
// reference run. Use -quick for a fast smoke pass.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"time"

	"uniint"
	"uniint/internal/appliance"
	"uniint/internal/benchfmt"
	"uniint/internal/core"
	"uniint/internal/device"
	"uniint/internal/gfx"
	"uniint/internal/havi"
	"uniint/internal/havi/fcm"
	"uniint/internal/homeapp"
	"uniint/internal/metrics"
	"uniint/internal/netsim"
	"uniint/internal/rfb"
	"uniint/internal/situation"
	"uniint/internal/toolkit"
	"uniint/internal/uniserver"
	"uniint/internal/workload"
)

func main() {
	quick := flag.Bool("quick", false, "fewer repetitions")
	jsonOut := flag.Bool("json", false,
		"emit the measurement snapshot as JSON in the BENCH_BASELINE.json schema on stdout (tables go to stderr)")
	traceDemoOut := flag.String("trace-demo", "",
		"skip the suite; run a fully-traced interaction workload and write Chrome trace_event JSON to this file (open in chrome://tracing or ui.perfetto.dev)")
	flag.Parse()
	reps := 50
	if *quick {
		reps = 10
	}
	if *traceDemoOut != "" {
		if err := traceDemo(*traceDemoOut); err != nil {
			fmt.Fprintln(os.Stderr, "unibench:", err)
			os.Exit(1)
		}
		return
	}
	if *jsonOut {
		// Tables keep printing through os.Stdout; point it at stderr so
		// stdout carries only the machine-readable snapshot.
		realOut := os.Stdout
		os.Stdout = os.Stderr
		collecting = true
		defer func() {
			b := benchfmt.Baseline{
				Schema:     benchfmt.Schema,
				Note:       fmt.Sprintf("cmd/unibench -json, %d reps", reps),
				Benchmarks: collected,
			}
			enc := json.NewEncoder(realOut)
			enc.SetIndent("", "  ")
			if err := enc.Encode(b); err != nil {
				fmt.Fprintln(os.Stderr, "unibench: encode json:", err)
				os.Exit(1)
			}
		}()
	}
	if err := run(reps); err != nil {
		fmt.Fprintln(os.Stderr, "unibench:", err)
		os.Exit(1)
	}
}

// collected accumulates per-measurement results for -json; record is a
// no-op in table-only runs.
var (
	collecting bool
	collected  []benchfmt.Result
)

// record captures one per-operation timing under a stable name shared
// with the baseline schema.
func record(name string, perOp time.Duration) {
	if collecting {
		collected = append(collected, benchfmt.Result{
			Name: name, NsPerOp: float64(perOp.Nanoseconds()),
			AllocsPerOp: -1, BytesPerOp: -1,
		})
	}
}

// recordBytes captures a bandwidth-style measurement (bytes carried by
// one operation) alongside its wall time.
func recordBytes(name string, perOp time.Duration, bytes int64) {
	if collecting {
		collected = append(collected, benchfmt.Result{
			Name: name, NsPerOp: float64(perOp.Nanoseconds()),
			AllocsPerOp: -1, BytesPerOp: float64(bytes),
		})
	}
}

func run(reps int) error {
	fmt.Println("universal interaction experiment suite (unibench)")
	fmt.Printf("repetitions per measurement: %d\n", reps)
	if err := e1(reps); err != nil {
		return err
	}
	e2(reps)
	e3(reps)
	if err := e4(reps); err != nil {
		return err
	}
	if err := e5(reps); err != nil {
		return err
	}
	if err := e6(reps); err != nil {
		return err
	}
	if err := e7(reps); err != nil {
		return err
	}
	if err := e8(); err != nil {
		return err
	}
	e9(reps)
	e10(reps)
	if err := e11(reps); err != nil {
		return err
	}
	if err := e12(reps); err != nil {
		return err
	}
	printMetrics()
	return nil
}

// printMetrics reports the process-wide instrumentation accumulated over
// the whole suite: the proxy/server hot-path counters and latency
// histograms from internal/metrics, alongside the per-experiment timings
// above.
func printMetrics() {
	fmt.Println("\n== process metrics (internal/metrics snapshot over the whole run) ==")
	snap := metrics.Default().Snapshot()
	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-36s %12d\n", name, snap.Counters[name])
	}
	names = names[:0]
	for name := range snap.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-36s %12d\n", name, snap.Gauges[name])
	}
	names = names[:0]
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := snap.Histograms[name]
		fmt.Printf("%-36s count %8d  p50 %10v  p95 %10v\n", name, h.Count,
			secs(h.Quantile(0.50)), secs(h.Quantile(0.95)))
	}
}

func secs(s float64) time.Duration {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond)
}

func e11(reps int) error {
	fmt.Println("\n== E11: end-to-end input latency over shaped links ==")
	links := []struct {
		key, name string
		opts      []netsim.Option
	}{
		{"direct", "direct (in-process)", nil},
		{"wifi", "wifi-class (5ms)", []netsim.Option{netsim.WithLatency(5 * time.Millisecond)}},
		{"bt", "bt-class (20ms)", []netsim.Option{netsim.WithLatency(20 * time.Millisecond)}},
	}
	n := max(reps/5, 5)
	fmt.Printf("%-22s %12s\n", "link", "median")
	for _, link := range links {
		lamp := appliance.NewLamp("Link Lamp")
		home := appliance.NewHome()
		if _, err := home.Add(lamp); err != nil {
			return err
		}
		home.Network().WaitIdle()
		display := toolkit.NewDisplay(640, 480)
		app := homeapp.New(home.Network(), display)
		srv := uniserver.New(display, "shaped")

		// Wrap is symmetric (shapes both directions), so one wrapped end
		// simulates the whole link.
		sc, cc := net.Pipe()
		go srv.Attach(sc, nil)
		proxy, err := core.Dial(netsim.Wrap(cc, link.opts...))
		if err != nil {
			return err
		}
		go proxy.Run()
		phone := device.NewPhone("phone-1")
		if err := proxy.AttachInput(phone); err != nil {
			return err
		}
		if err := proxy.SelectInput("phone-1"); err != nil {
			return err
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
		var samples []time.Duration
		for i := 0; i < n; i++ {
			start := time.Now()
			phone.PressKey("ok")
			<-latch
			samples = append(samples, time.Since(start))
		}
		med, _ := stats(samples)
		record("unibench/e11/"+link.key, med)
		fmt.Printf("%-22s %12v\n", link.name, med.Round(10*time.Microsecond))
		phone.Close()
		proxy.Close()
		srv.Close()
		app.Close()
		home.Close()
	}
	return nil
}

// demandHandler keeps the demand-driven update loop rolling for e12.
type demandHandler struct {
	client *rfb.ClientConn
	region gfx.Rect
}

func (h demandHandler) Updated([]gfx.Rect) { _ = h.client.RequestUpdate(true, h.region) }
func (h demandHandler) Bell()              {}
func (h demandHandler) CutText(string)     {}

// e12 measures the input pipeline: a pointer-move flood dragging a
// slider whose appliance reaction is slow (50µs per change). The flood
// is written in 32-event batches; the server queue coalesces it under
// backpressure, so dispatches and updates land at a small fraction of
// the event rate. Latency numbers come from the input_* histograms.
func e12(reps int) error {
	fmt.Println("\n== E12: input pipeline (pointer flood -> coalesced dispatch) ==")
	display := toolkit.NewDisplay(320, 240)
	slider := toolkit.NewSlider("drag", 0, 99, 50, func(int) {
		time.Sleep(50 * time.Microsecond) // slow appliance reaction
	})
	root := toolkit.NewPanel(toolkit.VBox{Gap: 4, Padding: 6})
	root.Add(slider)
	display.SetRoot(root)
	display.Render()
	srv := uniserver.New(display, "input storm")
	defer srv.Close()
	sc, cc := net.Pipe()
	go srv.Attach(sc, nil)
	client, err := rfb.Dial(cc)
	if err != nil {
		return err
	}
	defer client.Close()
	full := gfx.R(0, 0, 320, 240)
	go client.Run(demandHandler{client: client, region: full})
	if err := client.RequestUpdate(false, full); err != nil {
		return err
	}

	reg := metrics.Default()
	dispatched := reg.Counter("input_dispatched_total")
	coalesced := reg.Counter("input_coalesced_total")
	updates := reg.Counter("server_updates_sent_total")
	d0, c0, u0 := dispatched.Value(), coalesced.Value(), updates.Value()
	// The latency histograms are process-global and already hold samples
	// from E1/E11; snapshot them now so E12 reports only its own delta.
	dh0 := reg.Histogram("input_dispatch_seconds", metrics.LatencyBuckets()).Snapshot()
	uh0 := reg.Histogram("input_to_update_seconds", metrics.LatencyBuckets()).Snapshot()

	tb := slider.Bounds()
	cy := uint16(tb.Y + tb.H/2)
	if err := client.WriteEvents([]rfb.InputEvent{{IsPointer: true, Pointer: rfb.PointerEvent{
		Buttons: 1, X: uint16(tb.X + 8), Y: cy}}}); err != nil {
		return err
	}
	events := reps * 200
	batch := make([]rfb.InputEvent, 0, 32)
	start := time.Now()
	for i := 0; i < events; i++ {
		batch = append(batch, rfb.InputEvent{IsPointer: true, Pointer: rfb.PointerEvent{
			Buttons: 1, X: uint16(tb.X + 8 + i%(tb.W-16)), Y: cy}})
		if len(batch) == cap(batch) {
			if err := client.WriteEvents(batch); err != nil {
				return err
			}
			batch = batch[:0]
		}
	}
	if err := client.WriteEvents(batch); err != nil {
		return err
	}
	sent := int64(events + 1)
	for dispatched.Value()-d0+coalesced.Value()-c0 < sent {
		time.Sleep(50 * time.Microsecond)
	}
	wall := time.Since(start)
	perEvent := wall / time.Duration(events)
	// The final dispatch's FramebufferUpdate ships asynchronously on the
	// writer; give it a moment so the update-side numbers include it.
	deadline := time.Now().Add(500 * time.Millisecond)
	for updates.Value() == u0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	n := float64(events)
	fmt.Printf("%-34s %12d\n", "events flooded", events)
	fmt.Printf("%-34s %12v\n", "per event (wall, incl. drain)", perEvent.Round(10*time.Nanosecond))
	fmt.Printf("%-34s %12.4f\n", "dispatched/event", float64(dispatched.Value()-d0)/n)
	fmt.Printf("%-34s %12.4f\n", "coalesced/event", float64(coalesced.Value()-c0)/n)
	fmt.Printf("%-34s %12.4f\n", "updates/event", float64(updates.Value()-u0)/n)
	record("unibench/e12/event", perEvent)

	dh := histDelta(dh0, reg.Histogram("input_dispatch_seconds", metrics.LatencyBuckets()).Snapshot())
	uh := histDelta(uh0, reg.Histogram("input_to_update_seconds", metrics.LatencyBuckets()).Snapshot())
	fmt.Printf("%-34s %12v %12v\n", "enqueue->dispatch p50/p95",
		secs(dh.Quantile(0.50)), secs(dh.Quantile(0.95)))
	fmt.Printf("%-34s %12v %12v\n", "input->update p50/p95",
		secs(uh.Quantile(0.50)), secs(uh.Quantile(0.95)))
	record("unibench/e12/dispatch-p50", secs(dh.Quantile(0.50)))
	record("unibench/e12/dispatch-p95", secs(dh.Quantile(0.95)))
	record("unibench/e12/to-update-p50", secs(uh.Quantile(0.50)))
	record("unibench/e12/to-update-p95", secs(uh.Quantile(0.95)))
	return nil
}

// histDelta returns the samples snapshot `to` gained over `from` (same
// immutable bounds), so an experiment can report quantiles over only the
// observations it produced.
func histDelta(from, to metrics.HistogramSnapshot) metrics.HistogramSnapshot {
	out := metrics.HistogramSnapshot{
		Bounds: to.Bounds,
		Counts: make([]uint64, len(to.Counts)),
		Sum:    to.Sum - from.Sum,
	}
	for i := range to.Counts {
		out.Counts[i] = to.Counts[i] - from.Counts[i]
		out.Count += out.Counts[i]
	}
	return out
}

// lampSession assembles the standard measurement stack.
func lampSession() (*uniint.Session, *appliance.Lamp, chan int, error) {
	lamp := appliance.NewLamp("Bench Lamp")
	s, err := uniint.NewSession(uniint.Options{Appliances: []appliance.Appliance{lamp}})
	if err != nil {
		return nil, nil, nil, err
	}
	latch := make(chan int, 256)
	seid := lamp.Bulb().SEID()
	s.Home.Network().Events().Subscribe(havi.EventFCMChanged, func(ev havi.Event) {
		if ev.Source == seid && ev.Key == fcm.CtlPower {
			select {
			case latch <- ev.Value:
			default:
			}
		}
	})
	return s, lamp, latch, nil
}

func stats(ds []time.Duration) (median, p95 time.Duration) {
	if len(ds) == 0 {
		return 0, 0
	}
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2], sorted[len(sorted)*95/100]
}

func e1(reps int) error {
	fmt.Println("\n== E1: end-to-end input latency (device event -> appliance state change) ==")
	fmt.Printf("%-10s %12s %12s\n", "device", "median", "p95")

	type class struct {
		name string
		act  func(d devices)
	}
	classes := []class{
		{"phone", func(d devices) { d.phone.PressKey("ok") }},
		{"voice", func(d devices) { d.voice.Say("toggle") }},
		{"remote", func(d devices) { d.remote.Press("ok") }},
		{"gesture", func(d devices) { d.gesture.EmitStroke(device.StrokeTap) }},
	}
	for _, c := range classes {
		s, _, latch, err := lampSession()
		if err != nil {
			return err
		}
		d := attachAll(s)
		if err := s.Proxy.SelectInputByClass(c.name); err != nil {
			s.Close()
			return err
		}
		var samples []time.Duration
		for i := 0; i < reps; i++ {
			start := time.Now()
			c.act(d)
			<-latch
			samples = append(samples, time.Since(start))
		}
		med, p95 := stats(samples)
		record("unibench/e1/"+c.name, med)
		fmt.Printf("%-10s %12v %12v\n", c.name, med, p95)
		s.Close()
	}

	// PDA uses the pointer path.
	s, _, latch, err := lampSession()
	if err != nil {
		return err
	}
	d := attachAll(s)
	if err := s.Proxy.SelectInput("pda-1"); err != nil {
		s.Close()
		return err
	}
	s.Display.Render()
	foc := s.Display.Focus()
	b := foc.Bounds()
	var samples []time.Duration
	for i := 0; i < reps; i++ {
		start := time.Now()
		d.pda.Tap((b.X+4)/2, (b.Y+4)/2)
		<-latch
		samples = append(samples, time.Since(start))
	}
	med, p95 := stats(samples)
	record("unibench/e1/pda", med)
	fmt.Printf("%-10s %12v %12v\n", "pda", med, p95)
	s.Close()
	return nil
}

type devices struct {
	pda     *device.PDA
	phone   *device.Phone
	voice   *device.VoiceInput
	remote  *device.RemoteControl
	gesture *device.GestureInput
	tv      *device.TVDisplay
}

func attachAll(s *uniint.Session) devices {
	d := devices{
		pda:     device.NewPDA("pda-1"),
		phone:   device.NewPhone("phone-1"),
		voice:   device.NewVoiceInput("voice-1"),
		remote:  device.NewRemoteControl("remote-1"),
		gesture: device.NewGestureInput("gesture-1"),
		tv:      device.NewTVDisplay("tv-1"),
	}
	for _, in := range []core.InputDevice{d.pda, d.phone, d.voice, d.remote, d.gesture} {
		_ = s.Proxy.AttachInput(in)
	}
	for _, out := range []core.OutputDevice{d.pda, d.phone, d.tv} {
		_ = s.Proxy.AttachOutput(out)
	}
	return d
}

func e2(reps int) {
	fmt.Println("\n== E2: encoding trade-off (640x480, bytes per full-frame update) ==")
	frames := workload.Frames(640, 480)
	pf := gfx.PF32()
	encs := []int32{rfb.EncRaw, rfb.EncRRE, rfb.EncHextile, rfb.EncZlib}
	fmt.Printf("%-9s", "content")
	for _, e := range encs {
		fmt.Printf(" %14s", rfb.EncodingName(e))
	}
	fmt.Println()
	for _, content := range []string{"flat", "gui", "text", "noise"} {
		frame := frames[content]
		fmt.Printf("%-9s", content)
		for _, enc := range encs {
			var size int
			var total time.Duration
			for i := 0; i < max(reps/10, 3); i++ {
				start := time.Now()
				body, err := rfb.EncodeRectBytes(enc, frame, frame.Bounds(), pf)
				if err != nil {
					fmt.Printf(" %14s", "err")
					continue
				}
				total += time.Since(start)
				size = len(body)
			}
			avg := total / time.Duration(max(reps/10, 3))
			recordBytes(fmt.Sprintf("unibench/e2/%s/%s", content, rfb.EncodingName(enc)), avg, int64(size))
			fmt.Printf(" %8s/%5s", byteCount(size), avg.Round(100*time.Microsecond))
		}
		fmt.Println()
	}
}

func byteCount(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func e3(reps int) {
	fmt.Println("\n== E3: output plug-in conversion cost (640x480 GUI frame) ==")
	frame := workload.GUIFrame(640, 480)
	plugins := []struct {
		key, name string
		pl        core.OutputPlugin
	}{
		{"tv", "tv (passthrough 640x480x24)", device.NewTVDisplay("t").OutputPlugin()},
		{"pda", "pda (box scale to 320x240)", device.NewPDA("p").OutputPlugin()},
		{"phone", "phone (scale + dither to 96x64x1)", device.NewPhone("f").OutputPlugin()},
	}
	fmt.Printf("%-36s %12s\n", "plug-in", "per frame")
	for _, p := range plugins {
		var total time.Duration
		for i := 0; i < reps; i++ {
			start := time.Now()
			p.pl.Convert(frame)
			total += time.Since(start)
		}
		per := total / time.Duration(reps)
		record("unibench/e3/"+p.key, per)
		fmt.Printf("%-36s %12v\n", p.name, per.Round(time.Microsecond))
	}
}

func e4(reps int) error {
	fmt.Println("\n== E4: dynamic switching latency ==")
	s, _, _, err := lampSession()
	if err != nil {
		return err
	}
	defer s.Close()
	attachAll(s)

	var total time.Duration
	n := reps * 100
	ids := []string{"phone-1", "voice-1"}
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := s.Proxy.SelectInput(ids[i%2]); err != nil {
			return err
		}
	}
	total = time.Since(start)
	record("unibench/e4/input-switch", total/time.Duration(n))
	fmt.Printf("%-28s %12v\n", "input switch", total/time.Duration(n))

	outIDs := []string{"pda-1", "tv-1"}
	start = time.Now()
	for i := 0; i < reps; i++ {
		if err := s.Proxy.SelectOutput(outIDs[i%2]); err != nil {
			return err
		}
	}
	record("unibench/e4/output-switch", time.Since(start)/time.Duration(reps))
	fmt.Printf("%-28s %12v\n", "output switch (renegotiate)", time.Since(start)/time.Duration(reps))

	eng := situation.NewEngine(s.Proxy, situation.DefaultRules())
	sits := []situation.Situation{
		{Location: "kitchen", HandsBusy: true},
		{Location: "livingroom", Activity: "watching_tv", Seated: true},
	}
	start = time.Now()
	for i := 0; i < reps; i++ {
		eng.SetSituation(sits[i%2])
	}
	record("unibench/e4/situation-eval", time.Since(start)/time.Duration(reps))
	fmt.Printf("%-28s %12v\n", "situation rule evaluation", time.Since(start)/time.Duration(reps))
	return nil
}

func e5(reps int) error {
	fmt.Println("\n== E5: composed-GUI generation vs appliance count ==")
	fmt.Printf("%-12s %14s\n", "appliances", "regen+render")
	for _, n := range []int{1, 2, 4, 8, 16} {
		home := appliance.NewHome()
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
				home.Close()
				return err
			}
		}
		home.Network().WaitIdle()
		display := toolkit.NewDisplay(640, 480)
		app := homeapp.New(home.Network(), display)
		start := time.Now()
		for i := 0; i < reps; i++ {
			app.Rebuild()
			display.Render()
		}
		record(fmt.Sprintf("unibench/e5/%d-appliances", n), time.Since(start)/time.Duration(reps))
		fmt.Printf("%-12d %14v\n", n, (time.Since(start) / time.Duration(reps)).Round(time.Microsecond))
		app.Close()
		home.Close()
	}
	return nil
}

func e6(reps int) error {
	fmt.Println("\n== E6: HAVi middleware primitives ==")
	for _, n := range []int{10, 100, 1000} {
		net := havi.NewNetwork()
		for i := 0; i < n/2; i++ {
			d := havi.NewDCM(fmt.Sprintf("dev-%d", i), "lamp")
			d.AddFCM(fcm.NewLamp())
			if _, err := net.Attach(d); err != nil {
				net.Close()
				return err
			}
		}
		net.WaitIdle()
		match := map[string]string{"type": "fcm", "kind": "lamp"}
		start := time.Now()
		for i := 0; i < reps; i++ {
			net.Registry().Query(match)
		}
		record(fmt.Sprintf("unibench/e6/registry-query/%d", n), time.Since(start)/time.Duration(reps))
		fmt.Printf("registry query over %4d elements  %12v\n",
			net.Registry().Count(), (time.Since(start) / time.Duration(reps)).Round(time.Microsecond))
		net.Close()
	}

	net := havi.NewNetwork()
	defer net.Close()
	f := fcm.NewLamp()
	d := havi.NewDCM("lamp", "lamp")
	d.AddFCM(f)
	if _, err := net.Attach(d); err != nil {
		return err
	}
	msg := havi.Message{Dst: f.SEID(), Op: havi.OpGet, Key: fcm.CtlPower}
	n := reps * 1000
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := net.Messages().Call(msg); err != nil {
			return err
		}
	}
	record("unibench/e6/message-call", time.Since(start)/time.Duration(n))
	fmt.Printf("synchronous control message        %12v\n", time.Since(start)/time.Duration(n))

	for _, subs := range []int{10, 100} {
		net2 := havi.NewNetwork()
		for i := 0; i < subs; i++ {
			net2.Events().Subscribe(havi.EventFCMChanged, func(havi.Event) {})
		}
		ev := havi.Event{Type: havi.EventFCMChanged}
		start = time.Now()
		for i := 0; i < reps*10; i++ {
			net2.Events().Post(ev)
		}
		net2.WaitIdle()
		record(fmt.Sprintf("unibench/e6/event-fanout/%d", subs), time.Since(start)/time.Duration(reps*10))
		fmt.Printf("event fan-out to %3d subscribers   %12v\n",
			subs, (time.Since(start) / time.Duration(reps*10)).Round(time.Microsecond))
		net2.Close()
	}
	return nil
}

func e7(reps int) error {
	fmt.Println("\n== E7: hot plug -> GUI regeneration ==")
	home, err := appliance.StandardHome()
	if err != nil {
		return err
	}
	defer home.Close()
	display := toolkit.NewDisplay(640, 480)
	app := homeapp.New(home.Network(), display)
	defer app.Close()
	home.Network().WaitIdle()

	lamp := appliance.NewLamp("Plug Lamp")
	var attach, detach time.Duration
	for i := 0; i < reps; i++ {
		start := time.Now()
		if _, err := home.Add(lamp); err != nil {
			return err
		}
		home.Network().WaitIdle()
		attach += time.Since(start)

		start = time.Now()
		home.Remove(lamp)
		home.Network().WaitIdle()
		detach += time.Since(start)
	}
	record("unibench/e7/attach", attach/time.Duration(reps))
	record("unibench/e7/detach", detach/time.Duration(reps))
	fmt.Printf("attach -> GUI shows appliance   %12v\n", (attach / time.Duration(reps)).Round(time.Microsecond))
	fmt.Printf("detach -> GUI drops appliance   %12v\n", (detach / time.Duration(reps)).Round(time.Microsecond))
	return nil
}

func e8() error {
	fmt.Println("\n== E8: protocol bytes for the 30-interaction session, per output device ==")
	fmt.Printf("%-8s %6s %14s %10s\n", "output", "bpp", "bytes/session", "frames")
	for _, out := range []struct{ name, id string }{
		{"tv", "tv-1"}, {"pda", "pda-1"}, {"phone", "phone-1"},
	} {
		s, _, _, err := lampSession()
		if err != nil {
			return err
		}
		d := attachAll(s)
		if err := s.Proxy.SelectInput("phone-1"); err != nil {
			s.Close()
			return err
		}
		if err := s.Proxy.SelectOutput(out.id); err != nil {
			s.Close()
			return err
		}
		settle := func() {
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
		startBytes := s.Proxy.Client().BytesReceived()
		startFrames := s.Proxy.Stats().FramesPresented
		startTime := time.Now()
		// Settle after every step so each interaction's repaint is
		// shipped individually (damage coalescing across steps would
		// otherwise hide the per-device format differences).
		for _, st := range workload.StandardSession() {
			d.phone.PressKey(st.Arg)
			settle()
		}
		bpp := 32
		switch out.name {
		case "pda":
			bpp = 16
		case "phone":
			bpp = 8
		}
		recordBytes("unibench/e8/"+out.name, time.Since(startTime),
			s.Proxy.Client().BytesReceived()-startBytes)
		fmt.Printf("%-8s %6d %14s %10d\n", out.name, bpp,
			byteCount(int(s.Proxy.Client().BytesReceived()-startBytes)),
			s.Proxy.Stats().FramesPresented-startFrames)
		s.Close()
	}
	return nil
}

func e9(reps int) {
	fmt.Println("\n== E9: ablation — conversion at proxy (paper) vs at server, k devices ==")
	frame := workload.GUIFrame(640, 480)
	pl := device.NewPDA("p").OutputPlugin()
	pf := gfx.PF32()
	n := max(reps/10, 3)
	fmt.Printf("%-4s %16s %16s\n", "k", "proxy-side", "server-side")
	for _, k := range []int{1, 2, 4, 8} {
		var proxySide, serverSide time.Duration
		for i := 0; i < n; i++ {
			start := time.Now()
			_, _ = rfb.EncodeRectBytes(rfb.EncHextile, frame, frame.Bounds(), pf)
			for j := 0; j < k; j++ {
				pl.Convert(frame)
			}
			proxySide += time.Since(start)

			start = time.Now()
			for j := 0; j < k; j++ {
				f := pl.Convert(frame)
				_, _ = rfb.EncodeRectBytes(rfb.EncHextile, f.RGB, f.RGB.Bounds(), pf)
			}
			serverSide += time.Since(start)
		}
		record(fmt.Sprintf("unibench/e9/proxy-side/%d", k), proxySide/time.Duration(n))
		record(fmt.Sprintf("unibench/e9/server-side/%d", k), serverSide/time.Duration(n))
		fmt.Printf("%-4d %16v %16v\n", k,
			(proxySide / time.Duration(n)).Round(10*time.Microsecond),
			(serverSide / time.Duration(n)).Round(10*time.Microsecond))
	}
	fmt.Println("(proxy-side additionally spreads its k converts across k proxy hosts;")
	fmt.Println(" server-side concentrates all work on the appliance host)")
}

func e10(reps int) {
	fmt.Println("\n== E10: recognition path cost ==")
	corpus := []string{
		"next", "move down", "turn it up twice", "select",
		"please press the button", "completely unknown utterance here",
	}
	n := reps * 1000
	start := time.Now()
	for i := 0; i < n; i++ {
		device.RecognizeUtterance(corpus[i%len(corpus)])
	}
	record("unibench/e10/voice", time.Since(start)/time.Duration(n))
	fmt.Printf("voice grammar (per utterance)    %12v\n", time.Since(start)/time.Duration(n))

	stroke := make([]device.Point, 32)
	for i := range stroke {
		stroke[i] = device.Point{X: 10 + i*3, Y: 50 + (i % 3)}
	}
	start = time.Now()
	for i := 0; i < n; i++ {
		device.ClassifyStroke(stroke)
	}
	record("unibench/e10/gesture", time.Since(start)/time.Duration(n))
	fmt.Printf("gesture classifier (per stroke)  %12v\n", time.Since(start)/time.Duration(n))
}
