//go:build linux

package main

import (
	"bytes"
	"errors"
	"net"
	"sync/atomic"
	"time"

	"uniint"
	"uniint/internal/core"
	"uniint/internal/device"
	"uniint/internal/fed"
	"uniint/internal/gfx"
	"uniint/internal/hub"
	"uniint/internal/metrics"
	"uniint/internal/rfb"
	"uniint/internal/sched"
	"uniint/internal/toolkit"
	"uniint/internal/workload"
)

// Layer replays [R]: the harness calls a layer's exported functions
// directly, on inputs rendered from the real composed panel (a twin home)
// or produced by the internal/workload generators, and reports the median
// of replayCalls timed calls. They put a number on layers no workload
// isolates — and on fed migration, which no workload reaches at all.

// replayCalls is how many timed calls each replay makes.
var replayCalls = 200

// replaySeed feeds the workload generators; replays are not part of what
// -seed varies, so their numbers compare across runs.
const replaySeed = 1

// proxyEncodings is what core.Dial advertises, in its order.
var proxyEncodings = []int32{
	rfb.EncTileRef, rfb.EncTileInstall, rfb.EncZlibDict,
	rfb.EncHextile, rfb.EncRRE, rfb.EncZlib, rfb.EncCopyRect, rfb.EncRaw,
}

// putFunc records one replay metric, in the unit the per-layer table names.
type putFunc func(name string, v float64)

// timeCalls runs fn calls times and returns the median duration in ns.
func timeCalls(calls int, fn func() error) (float64, error) {
	samples := make([]float64, 0, calls)
	for i := 0; i < calls; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		samples = append(samples, float64(time.Since(t0)))
	}
	return median(samples), nil
}

// timeBatches is timeCalls for calls too short to time alone: each sample
// is the mean of a batch.
func timeBatches(calls, batch int, fn func()) float64 {
	ns, _ := timeCalls(calls, func() error {
		for i := 0; i < batch; i++ {
			fn()
		}
		return nil
	})
	return ns / float64(batch)
}

// replayLayers runs every replay and returns the [R] metrics by name.
func replayLayers(calls int) (map[string]float64, error) {
	out := map[string]float64{}
	put := putFunc(func(name string, v float64) { out[name] = v })
	twin, err := newTwin(workload.HomeID(0))
	if err != nil {
		return nil, err
	}
	defer twin.Close()
	full := gfx.R(0, 0, hubWidth, hubHeight)
	panel := twin.Display.Snapshot(full) // the real composed 640×480 panel

	// core: output plug-in conversion of the panel for each device class.
	for name, dev := range map[string]core.OutputDevice{
		"core.convert_tv_us":    device.NewTVDisplay("tv"),
		"core.convert_pda_us":   device.NewPDA("pda"),
		"core.convert_phone_us": device.NewPhone("phone"),
	} {
		plug := dev.OutputPlugin()
		ns, _ := timeCalls(calls, func() error { plug.Convert(panel); return nil })
		put(name, ns/1e3)
	}

	// rfb: full-frame encode per encoding, and decode of what a cold join
	// ships (dictionary zlib).
	var body []byte
	for name, enc := range map[string]int32{
		"rfb.encode_full_zlibdict_us": rfb.EncZlibDict,
		"rfb.encode_full_hextile_us":  rfb.EncHextile,
		"rfb.encode_full_raw_us":      rfb.EncRaw,
	} {
		var buf []byte
		ns, err := timeCalls(calls, func() (err error) {
			buf, err = rfb.EncodeRectInto(buf[:0], enc, panel, full, gfx.PF32())
			return err
		})
		if err != nil {
			return nil, err
		}
		put(name, ns/1e3)
		if enc == rfb.EncZlibDict {
			body = append([]byte(nil), buf...)
		}
	}
	into := gfx.NewFramebuffer(hubWidth, hubHeight)
	ns, err := timeCalls(calls, func() error {
		return rfb.DecodeRectBytes(bytes.NewReader(body), rfb.EncZlibDict, into, full, gfx.PF32())
	})
	if err != nil {
		return nil, err
	}
	put("rfb.decode_full_us", ns/1e3)

	if err := replayWire(calls, twin, put); err != nil {
		return nil, err
	}
	if err := replayPanel(calls, twin, put); err != nil {
		return nil, err
	}
	if err := replayRouting(calls, put); err != nil {
		return nil, err
	}
	if err := replayMigration(calls, put); err != nil {
		return nil, err
	}

	// sched: kick → the turn starts, on an otherwise idle pool.
	pool := sched.NewPool(0)
	defer pool.Close()
	var ranAt atomic.Int64
	ran := make(chan struct{}, 1)
	task := pool.NewTask(func() {
		ranAt.Store(time.Now().UnixNano())
		ran <- struct{}{}
	})
	defer task.Stop()
	lag := make([]float64, 0, calls)
	for i := 0; i < calls; i++ {
		t0 := time.Now().UnixNano()
		task.Kick()
		<-ran
		lag = append(lag, float64(ranAt.Load()-t0))
	}
	put("sched.kick_to_run_ns", median(lag))
	return out, nil
}

// scriptConn is a net.Conn over memory: reads come from a prepared byte
// string, writes are captured. It lets a replay hand a layer exactly the
// bytes a peer would have sent, with no goroutine and no socket.
type scriptConn struct {
	r *bytes.Reader
	w bytes.Buffer
}

func script(b []byte) *scriptConn { return &scriptConn{r: bytes.NewReader(b)} }

func (c *scriptConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error)      { return c.w.Write(p) }
func (c *scriptConn) Close() error                     { return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return scriptAddr{} }
func (c *scriptConn) RemoteAddr() net.Addr             { return scriptAddr{} }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

type scriptAddr struct{}

func (scriptAddr) Network() string { return "script" }
func (scriptAddr) String() string  { return "script" }

// nopHandler discards what Feed dispatches.
type nopHandler struct{}

func (nopHandler) KeyEvent(rfb.KeyEvent)           {}
func (nopHandler) PointerEvent(rfb.PointerEvent)   {}
func (nopHandler) UpdateRequest(rfb.UpdateRequest) {}
func (nopHandler) CutText(string)                  {}

// handshaken returns both ends of a protocol connection over memory: the
// server end takes client bytes through Feed, and whatever the client end
// sends lands in the returned scriptConn's write buffer.
func handshaken() (*rfb.ServerConn, *rfb.ClientConn, *scriptConn, error) {
	srvSide := script(rfb.ClientHello(""))
	sc, err := rfb.NewEdgeServerConn(srvSide, hubWidth, hubHeight, "replay", nil)
	if err != nil {
		return nil, nil, nil, err
	}
	cliSide := script(srvSide.w.Bytes())
	cc, err := rfb.Dial(cliSide)
	if err != nil {
		return nil, nil, nil, err
	}
	cliSide.w.Reset()
	if err := cc.SetEncodings(proxyEncodings); err != nil {
		return nil, nil, nil, err
	}
	if err := sc.Feed(cliSide.w.Bytes(), nopHandler{}); err != nil {
		return nil, nil, nil, err
	}
	cliSide.w.Reset()
	return sc, cc, cliSide, nil
}

// replayWire times the wire tier on the real panel: the no-change
// full-screen prepare a device switch costs, the widget-damage prepare a
// key press costs, the parse of a generated input stream, and the detach
// lot's pack and unpack of the session's shadow.
func replayWire(calls int, tw *twin, put putFunc) error {
	sc, cc, captured, err := handshaken()
	if err != nil {
		return err
	}
	d := tw.Display
	ws := rfb.NewWireState(rfb.NewTileCache(0), hubWidth, hubHeight)
	prepare := func(rects []gfx.Rect) error {
		urs := make([]rfb.UpdateRect, len(rects))
		for i, r := range rects {
			urs[i] = rfb.UpdateRect{Rect: r, Encoding: rfb.EncAdaptive}
		}
		var prep *rfb.PreparedUpdate
		var err error
		d.WithFramebuffer(func(fb *gfx.Framebuffer) { prep, err = sc.PrepareUpdateWire(fb, urs, ws) })
		prep.Release()
		return err
	}
	full := []gfx.Rect{gfx.R(0, 0, hubWidth, hubHeight)}
	if err := prepare(full); err != nil { // the first paint validates the shadow
		return err
	}
	ns, err := timeCalls(calls, func() error { return prepare(full) })
	if err != nil {
		return err
	}
	put("rfb.prepare_nochange_us", ns/1e3)

	// Widget damage: flip the panel's first toggle, render, and prepare
	// exactly the rectangles the renderer reports — a key press's update.
	if err := focusToggle(d); err != nil {
		return err
	}
	var widget []float64
	for i := 0; i < calls; i++ {
		d.InjectKey(true, toolkit.KeyEnter)
		d.InjectKey(false, toolkit.KeyEnter)
		rects := d.Render()
		t0 := time.Now()
		if err := prepare(rects); err != nil {
			return err
		}
		widget = append(widget, float64(time.Since(t0)))
	}
	put("rfb.encode_widget_us", median(widget)/1e3)

	// Feed: a generated key / pointer / request stream, written by a real
	// client end and parsed by the server end.
	const msgs = 1024
	storm := workload.NewInputStorm(1, hubWidth, hubHeight, stylusMoves, replaySeed)
	evs := make([]rfb.InputEvent, 0, msgs)
	for len(evs) < msgs-msgs/8 {
		st := storm.Next()
		if st.Pointer() {
			evs = append(evs, rfb.InputEvent{IsPointer: true, Pointer: rfb.PointerEvent{Buttons: st.Buttons, X: uint16(st.X), Y: uint16(st.Y)}})
		} else {
			evs = append(evs, rfb.InputEvent{Key: rfb.KeyEvent{Down: st.Down, Key: st.Key}})
		}
	}
	if err := cc.WriteEvents(evs); err != nil {
		return err
	}
	for i := 0; i < msgs/8; i++ {
		if err := cc.RequestUpdate(true, full[0]); err != nil {
			return err
		}
	}
	stream := append([]byte(nil), captured.w.Bytes()...)
	ns, err = timeCalls(calls, func() error { return sc.Feed(stream, nopHandler{}) })
	if err != nil {
		return err
	}
	put("rfb.feed_ns_per_msg", ns/msgs)

	// Pack / unpack: what parking and thawing a session's shadow costs.
	var packed *rfb.PackedShadow
	ns, err = timeCalls(calls, func() (err error) { packed, err = ws.Pack(); return err })
	if err != nil {
		return err
	}
	put("rfb.pack_us", ns/1e3)
	put("rfb.pack_ratio", ratio(float64(packed.CompressedBytes()), float64(packed.RawBytes())))
	ns, err = timeCalls(calls, func() error { _, err := packed.Unpack(nil); return err })
	if err != nil {
		return err
	}
	put("rfb.unpack_us", ns/1e3)
	return nil
}

// focusToggle moves the display's focus to its first toggle.
func focusToggle(d *toolkit.Display) error {
	for range focusLap(d) {
		if _, ok := d.Focus().(*toolkit.Toggle); ok {
			return nil
		}
		d.InjectKey(true, toolkit.KeyTab)
		d.InjectKey(false, toolkit.KeyTab)
	}
	return errors.New("panel has no toggle")
}

// replayPanel times the server-side chain under a key press on the twin:
// the damage-clipped and the full repaint, and the control round trip
// homeapp → havi → appliance → event → widget.
func replayPanel(calls int, tw *twin, put putFunc) error {
	d := tw.Display
	if err := focusToggle(d); err != nil {
		return err
	}
	var render, roundtrip []float64
	for i := 0; i < calls; i++ {
		t0 := time.Now()
		d.InjectKey(true, toolkit.KeyEnter)
		tw.WaitIdle() // the appliance changed and its event reached the GUI
		roundtrip = append(roundtrip, float64(time.Since(t0)))
		d.InjectKey(false, toolkit.KeyEnter)
		t0 = time.Now()
		d.Render()
		render = append(render, float64(time.Since(t0)))
	}
	put("havi.control_roundtrip_us", median(roundtrip)/1e3)
	put("toolkit.render_widget_us", median(render)/1e3)
	ns, _ := timeCalls(calls, func() error {
		d.InvalidateAll()
		d.Render()
		return nil
	})
	put("toolkit.render_full_us", ns/1e3)
	return nil
}

// homeFactory builds full homes the way cmd/unihub's factory does, all
// sharing one tile cache.
func homeFactory() hub.Factory {
	tiles := uniint.NewTileCache(0)
	return func(homeID string) (hub.Host, error) { return newHome(homeID, tiles) }
}

// stubHost is a home that takes a routed connection and returns at once;
// it claims to park exactly one token.
type stubHost struct {
	hub.Host
	token string
}

func (s stubHost) HasParked(token string) bool { return token == s.token }

type stubHandler struct{}

func (stubHandler) HandleConn(net.Conn) error { return nil }
func (stubHandler) Close()                    {}

// replayRouting times connection-time routing: the preamble parse, the
// ring, admission of a resident and of a cold home, and the federation
// router from preamble to hand-off over three nodes of stub homes.
func replayRouting(calls int, put putFunc) error {
	const batch = 256
	line := []byte(hub.Preamble{HomeID: workload.HomeID(7), Token: "0123456789abcdef01234567"}.String() + "\n")
	rd := bytes.NewReader(line)
	put("hub.parse_preamble_ns", timeBatches(calls, batch, func() {
		rd.Reset(line)
		_, _ = hub.ParsePreamble(rd)
	}))
	ring := fed.NewRing("alpha", "beta", "gamma")
	k := 0
	put("fed.owner_ns", timeBatches(calls, batch, func() {
		k++
		ring.Owner(workload.HomeID(k % hubHomes))
	}))

	// Real homes: a resident admit is a lookup, a cold one builds the
	// appliances, middleware, panel and server.
	reg := metrics.NewRegistry()
	h, err := hub.New(hub.Options{Factory: homeFactory(), Metrics: reg})
	if err != nil {
		return err
	}
	defer h.Close()
	if _, err := h.Admit(workload.HomeID(0)); err != nil {
		return err
	}
	put("hub.admit_resident_ns", timeBatches(calls, batch, func() { _, _ = h.Admit(workload.HomeID(0)) }))
	var cold []float64
	for i := 0; i < calls; i++ {
		t0 := time.Now()
		if _, err := h.Admit(workload.HomeID(1)); err != nil {
			return err
		}
		cold = append(cold, float64(time.Since(t0)))
		h.Evict(workload.HomeID(1))
	}
	put("hub.admit_cold_us", median(cold)/1e3)

	// The federation router over stub homes: 16 homes on 3 nodes.
	cluster := fed.NewCluster(fed.Options{Metrics: reg})
	for _, name := range []string{"alpha", "beta", "gamma"} {
		node, err := hub.New(hub.Options{Metrics: reg, Factory: func(id string) (hub.Host, error) {
			return stubHost{hub.AdaptConnHandler(stubHandler{}), "token-of-" + id}, nil
		}})
		if err != nil {
			return err
		}
		defer node.Close()
		if err := cluster.AddNode(name, node); err != nil {
			return err
		}
	}
	for i := 0; i < hubHomes; i++ {
		if err := cluster.ServeConn(script([]byte(hub.Preamble{HomeID: workload.HomeID(i)}.String() + "\n"))); err != nil {
			return err
		}
	}
	byHome := []byte(hub.Preamble{HomeID: workload.HomeID(9)}.String() + "\n")
	ns, err := timeCalls(calls, func() error { return cluster.ServeConn(script(byHome)) })
	if err != nil {
		return err
	}
	put("fed.serve_route_home_us", ns/1e3)
	byToken := []byte(hub.Preamble{HomeID: hub.TokenHome, Token: "token-of-" + workload.HomeID(9)}.String() + "\n")
	ns, err = timeCalls(calls, func() error { return cluster.ServeConn(script(byToken)) })
	if err != nil {
		return err
	}
	put("fed.serve_route_token_us", ns/1e3)
	return nil
}

// replayMigration parks one real session on a two-node federation and
// times what moves it: encoding and decoding its migration record, and
// Cluster.MigrateHome back and forth. cmd/unihub migrates only while it
// drains on SIGTERM, so no workload reaches this path.
func replayMigration(calls int, put putFunc) error {
	reg := metrics.NewRegistry()
	factory := homeFactory()
	cluster := fed.NewCluster(fed.Options{Metrics: reg})
	nodes := map[string]*hub.Hub{}
	for _, name := range []string{"alpha", "beta"} {
		node, err := hub.New(hub.Options{Factory: factory, Metrics: reg})
		if err != nil {
			return err
		}
		defer node.Close()
		nodes[name] = node
		if err := cluster.AddNode(name, node); err != nil {
			return err
		}
	}
	home := workload.HomeID(0)
	at, _ := cluster.Owner(home)
	other := "alpha"
	if at == other {
		other = "beta"
	}

	// One client paints its first frame and drops its link: its session
	// parks on the owner.
	client, server := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- cluster.ServeConn(server) }() // ends when the client closes
	if err := hub.WritePreamble(client, home); err != nil {
		return err
	}
	proxy, err := core.Dial(client)
	if err != nil {
		return err
	}
	ran := make(chan error, 1)
	go func() { ran <- proxy.Run() }() // ends when the proxy closes
	tv := newOutProbe(device.NewTVDisplay("tv"), false)
	if err := proxy.AttachOutput(tv); err != nil {
		return err
	}
	if err := firstFrame(proxy, tv); err != nil {
		return err
	}
	token := proxy.SessionToken()
	proxy.Close()
	<-ran
	<-served
	host, err := nodes[at].Get(home)
	if err != nil {
		return err
	}
	for deadline := time.Now().Add(5 * time.Second); !host.HasParked(token); {
		if time.Now().After(deadline) {
			return errors.New("replay session never parked")
		}
		time.Sleep(time.Millisecond)
	}

	rec, ok := host.ExportParked(token)
	if !ok {
		return errors.New("parked session not exportable")
	}
	var wire []byte
	ns, err := timeCalls(calls, func() (err error) { wire, err = rec.Encode(); return err })
	if err != nil {
		return err
	}
	put("rfb.mig_encode_us", ns/1e3)
	ns, err = timeCalls(calls, func() error { _, err := rfb.DecodeMigration(wire); return err })
	if err != nil {
		return err
	}
	put("rfb.mig_decode_us", ns/1e3)
	if err := host.ImportParked(rec); err != nil {
		return err
	}

	var moves []float64
	for i := 0; i < calls; i++ {
		t0 := time.Now()
		if err := cluster.MigrateHome(home, at, other); err != nil {
			return err
		}
		moves = append(moves, float64(time.Since(t0)))
		at, other = other, at
	}
	put("fed.migrate_home_us", median(moves)/1e3)
	c := reg.Snapshot().Counters
	put("fed.migrate_bytes", ratio(float64(c["fed_migration_bytes_total"]), float64(c["fed_migrations_total"])))
	return nil
}
