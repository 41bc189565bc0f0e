//go:build linux

package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"uniint/internal/core"
	"uniint/internal/device"
	"uniint/internal/gfx"
	"uniint/internal/hub"
	"uniint/internal/workload"
)

func newDriver(name string) (driver, error) {
	switch name {
	case "keypad":
		return keypadDriver{}, nil
	case "stylus":
		return stylusDriver{}, nil
	case "switch":
		return switchDriver{}, nil
	case "roam":
		return roamDriver{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// clientSeed derives client i's generator from the run's seed.
func clientSeed(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
}

// link is one proxy connection to a hub-hosted home.
type link struct {
	home  string
	conn  *probeConn
	proxy *core.Proxy
	done  chan struct{} // closed when proxy.Run returned
}

// dialLink connects a proxy to home through the hub's routing preamble,
// over a probed socket, and starts its read loop.
func dialLink(h *hubProc, home string, timed bool) (*link, error) {
	raw, err := hub.DialHome(h.addr, home)
	if err != nil {
		return nil, err
	}
	conn := &probeConn{Conn: raw, timed: timed}
	proxy, err := core.Dial(conn)
	if err != nil {
		return nil, err
	}
	l := &link{home: home, conn: conn, proxy: proxy, done: make(chan struct{})}
	go func() { // ends when the link closes
		_ = proxy.Run()
		close(l.done)
	}()
	return l, nil
}

func (l *link) close() {
	l.proxy.Close()
	<-l.done
}

// quiesce waits until the link has applied no update for the quiet time.
func (l *link) quiesce() error { return waitQuiet(l.proxy, quiet) }

func waitQuiet(p *core.Proxy, quiet time.Duration) error {
	deadline := time.Now().Add(5 * time.Second)
	last, since := p.Client().UpdatesReceived(), time.Now()
	for time.Since(since) < quiet {
		if time.Now().After(deadline) {
			return errors.New("link never went quiet")
		}
		time.Sleep(time.Millisecond)
		if n := p.Client().UpdatesReceived(); n != last {
			last, since = n, time.Now()
		}
	}
	return nil
}

func (l *link) shadow() *gfx.Framebuffer {
	w, h := l.proxy.Client().Size()
	return l.proxy.Client().Snapshot(gfx.R(0, 0, w, h))
}

// proxyCounters reads the running totals off one proxy.
func proxyCounters(p *core.Proxy) clientCounters {
	st := p.Stats()
	return clientCounters{
		wireUp: st.BytesToServer, wireDown: st.BytesFromServer,
		updates:   p.Client().UpdatesReceived(),
		coalesced: st.EventsCoalesced, lost: st.ForwardErrors + st.DroppedRaw,
	}
}

// firstFrame selects the output and waits for the frame that follows.
func firstFrame(p *core.Proxy, out *outProbe) error {
	before := out.frames.Load()
	if err := p.SelectOutput(out.ID()); err != nil {
		return err
	}
	t := time.NewTimer(5 * time.Second)
	defer t.Stop()
	if !out.await(before, t) {
		return fmt.Errorf("no first frame on %s", out.ID())
	}
	return nil
}

// newTV builds the reference client's screen for clients whose pixels were
// painted for a TV (PF32).
func newTV() core.OutputDevice { return device.NewTVDisplay("ref") }

// --- keypad ---------------------------------------------------------------

type keypadDriver struct{}

func (keypadDriver) federated() bool     { return false }
func (keypadDriver) updatesPerOp() int64 { return 1 }

// keypadClient presses phone keys and watches the TV.
type keypadClient struct {
	*link
	phone *device.Phone
	tv    *outProbe
	rng   *rand.Rand
	timer *time.Timer

	okStop []bool // focus stops where "ok" yields exactly one update
	pos    int    // current focus stop
	lastOK bool
	keys   int64 // universal key events the script caused
}

func (keypadDriver) connect(h *hubProc, i int, cfg runConfig) (client, error) {
	home := workload.HomeID(i)
	l, err := dialLink(h, home, cfg.traced)
	if err != nil {
		return nil, err
	}
	c := &keypadClient{
		link: l, phone: device.NewPhone(fmt.Sprintf("phone-%d", i)),
		tv:  newOutProbe(device.NewTVDisplay(fmt.Sprintf("tv-%d", i)), cfg.traced),
		rng: clientSeed(cfg.seed, i), timer: newOpTimer(),
	}
	if err := c.warm(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// warm attaches the devices, waits for the first frame, then walks one
// focus lap: at every toggle stop (known from the twin) it presses "ok"
// twice and keeps the stop only if each press produced exactly one update,
// so the script stays unambiguous for the closed loop.
func (c *keypadClient) warm() error {
	if err := c.proxy.AttachInput(c.phone); err != nil {
		return err
	}
	if err := c.proxy.SelectInput(c.phone.ID()); err != nil {
		return err
	}
	if err := c.proxy.AttachOutput(c.tv); err != nil {
		return err
	}
	if err := firstFrame(c.proxy, c.tv); err != nil {
		return err
	}
	twin, err := newTwin(c.home)
	if err != nil {
		return err
	}
	toggles := focusLap(twin.Display)
	twin.Close()
	if len(toggles) == 0 {
		return errors.New("panel has no focus stops")
	}
	c.okStop = make([]bool, len(toggles))
	for stop, isToggle := range toggles {
		if isToggle {
			first, err := c.probe("ok")
			if err != nil {
				return err
			}
			second, err := c.probe("ok") // back to the state it was found in
			if err != nil {
				return err
			}
			c.okStop[stop] = first == 1 && second == 1
		}
		if n, err := c.probe("#"); err != nil {
			return err
		} else if n != 1 {
			return fmt.Errorf("focus traverse at stop %d produced %d updates, want 1", stop, n)
		}
	}
	return nil
}

// probeQuiet is how long a probe waits for a second update: an appliance's
// echo crosses the in-process middleware in well under a millisecond.
const probeQuiet = 8 * time.Millisecond

// probe presses key, waits for its frame and then for quiet, and returns
// how many updates the press produced in all.
func (c *keypadClient) probe(key string) (int64, error) {
	before, updates := c.tv.frames.Load(), c.proxy.Client().UpdatesReceived()
	c.phone.PressKey(key)
	c.keys += 2
	c.timer.Reset(opTimeout)
	if !c.tv.await(before, c.timer) {
		return 0, fmt.Errorf("no frame after probing %q", key)
	}
	if err := waitQuiet(c.proxy, probeQuiet); err != nil {
		return 0, err
	}
	return c.proxy.Client().UpdatesReceived() - updates, nil
}

func (c *keypadClient) op(rec *recorder) {
	key := "#"
	if c.okStop[c.pos] && !c.lastOK && c.rng.Intn(2) == 0 {
		key = "ok"
	}
	c.lastOK = key == "ok"
	before := c.tv.frames.Load()
	c.conn.arm()
	t0 := time.Now().UnixNano()
	c.phone.PressKey(key)
	c.keys += 2
	if key == "#" {
		c.pos = (c.pos + 1) % len(c.okStop)
	}
	c.timer.Reset(opTimeout)
	if !c.tv.await(before, c.timer) {
		rec.fail()
		return
	}
	rec.done(c.tv.presentAt.Load() - t0)
	rec.spans(t0, c.conn, c.tv)
}

func (c *keypadClient) counters() clientCounters {
	cc := proxyCounters(c.proxy)
	cc.keys = c.keys
	cc.lost += c.phone.Dropped()
	return cc
}

func (c *keypadClient) reference() refCheck {
	return refCheck{home: c.home, got: c.shadow(), newScreen: newTV}
}

func (c *keypadClient) close() {
	c.link.close()
	c.phone.Close()
}

// --- stylus ---------------------------------------------------------------

// The drag's shape: contact, 32 moves on a 0.5 ms tick, release, 8 ms gap.
const (
	stylusMoves = 32
	stylusTick  = 500 * time.Microsecond
	stylusGap   = 8 * time.Millisecond
)

type stylusDriver struct{}

func (stylusDriver) federated() bool     { return false }
func (stylusDriver) updatesPerOp() int64 { return 0 }

// stylusClient drags a slider on a PDA that is input and output at once.
type stylusClient struct {
	*link
	pda   *device.PDA
	out   *outProbe
	rng   *rand.Rand
	timer *time.Timer
	track sliderTrack

	at       int // index into track.values under the stylus
	dir      int
	pointers int64 // pointer events the gestures emitted
}

func (stylusDriver) connect(h *hubProc, i int, cfg runConfig) (client, error) {
	home := workload.HomeID(i)
	l, err := dialLink(h, home, cfg.traced)
	if err != nil {
		return nil, err
	}
	pda := device.NewPDA(fmt.Sprintf("pda-%d", i))
	c := &stylusClient{
		link: l, pda: pda, out: newOutProbe(pda, cfg.traced),
		rng: clientSeed(cfg.seed, i), timer: newOpTimer(), dir: 1,
	}
	if err := c.warm(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// warm finds the slider on the twin, attaches the PDA both ways and runs
// two drags so pools and the tile cache are warm.
func (c *stylusClient) warm() error {
	twin, err := newTwin(c.home)
	if err != nil {
		return err
	}
	track, ok := widestSlider(twin.Display, hubWidth/device.PDAWidth)
	twin.Close()
	if !ok || track.distinct() < 8 {
		return errors.New("panel has no slider worth dragging")
	}
	c.track = track
	c.at = c.rng.Intn(len(track.values))
	if err := c.proxy.AttachInput(c.pda); err != nil {
		return err
	}
	if err := c.proxy.SelectInput(c.pda.ID()); err != nil {
		return err
	}
	if err := c.proxy.AttachOutput(c.out); err != nil {
		return err
	}
	if err := firstFrame(c.proxy, c.out); err != nil {
		return err
	}
	warm := &recorder{}
	c.op(warm)
	c.op(warm)
	if warm.failed > 0 {
		return errors.New("warm-up drag saw no update after its release")
	}
	return c.quiesce()
}

// step moves the stylus along the track to the next column whose value
// differs from the current one, bouncing off the ends, so every event of
// the gesture changes the slider.
func (c *stylusClient) step() {
	v := c.track.values[c.at]
	for i := c.at + c.dir; ; i += c.dir {
		if i < 0 || i >= len(c.track.values) {
			c.dir = -c.dir
			i = c.at
			continue
		}
		if c.track.values[i] != v {
			c.at = i
			return
		}
	}
}

func (c *stylusClient) x() int { return c.track.x0 + c.at }

func (c *stylusClient) op(rec *recorder) {
	start := time.Now()
	tick := func(k int) {
		due := start.Add(time.Duration(k) * stylusTick)
		time.Sleep(time.Until(due))
		rec.lateNS = append(rec.lateNS, int64(time.Since(due)))
	}
	if c.rng.Intn(4) == 0 {
		c.dir = -c.dir // seeded: some drags turn around
	}
	c.step()
	c.pda.TouchDown(c.x(), c.track.y)
	for k := 1; k <= stylusMoves; k++ {
		tick(k)
		c.step()
		c.pda.TouchMove(c.x(), c.track.y)
	}
	tick(stylusMoves + 1)
	c.step()
	before := c.out.frames.Load()
	c.conn.arm()
	t0 := time.Now().UnixNano()
	c.pda.TouchUp(c.x(), c.track.y)
	c.pointers += stylusMoves + 2
	time.Sleep(stylusGap)
	// The op ends with the gap — or, on a slow day, with the first frame
	// after the release: the user does not start the next drag before the
	// slider has answered this one. Latency is release → last frame seen.
	c.timer.Reset(opTimeout)
	if !c.out.await(before, c.timer) {
		rec.fail()
		return
	}
	rec.done(c.out.presentAt.Load() - t0)
	if c.out.frames.Load()-before == 1 {
		rec.spans(t0, c.conn, c.out)
	}
}

func (c *stylusClient) counters() clientCounters {
	cc := proxyCounters(c.proxy)
	cc.pointers = c.pointers
	cc.lost += c.pda.Dropped()
	return cc
}

func (c *stylusClient) reference() refCheck {
	return refCheck{home: c.home, got: c.shadow(), newScreen: func() core.OutputDevice { return device.NewPDA("ref") }}
}

func (c *stylusClient) close() {
	c.link.close()
	c.pda.Close()
}

// --- switch ---------------------------------------------------------------

type switchDriver struct{}

func (switchDriver) federated() bool     { return false }
func (switchDriver) updatesPerOp() int64 { return 1 }

// switchClient rotates the session's display over three attached devices.
type switchClient struct {
	*link
	outs  []*outProbe // tv, pda, phone
	cur   int
	timer *time.Timer
}

func (switchDriver) connect(h *hubProc, i int, cfg runConfig) (client, error) {
	home := workload.HomeID(i)
	l, err := dialLink(h, home, cfg.traced)
	if err != nil {
		return nil, err
	}
	c := &switchClient{link: l, timer: newOpTimer(), outs: []*outProbe{
		newOutProbe(device.NewTVDisplay(fmt.Sprintf("tv-%d", i)), cfg.traced),
		newOutProbe(device.NewPDA(fmt.Sprintf("pda-%d", i)), cfg.traced),
		newOutProbe(device.NewPhone(fmt.Sprintf("phone-%d", i)), cfg.traced),
	}}
	// Warm-up: every device shows its first frame once (one full rotation).
	for _, o := range c.outs {
		if err := c.proxy.AttachOutput(o); err != nil {
			c.close()
			return nil, err
		}
	}
	for k := range c.outs {
		c.cur = k
		if err := firstFrame(c.proxy, c.outs[k]); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, c.quiesce()
}

func (c *switchClient) op(rec *recorder) {
	c.cur = (c.cur + 1) % len(c.outs)
	next := c.outs[c.cur]
	before := next.frames.Load()
	c.conn.arm()
	t0 := time.Now().UnixNano()
	if err := c.proxy.SelectOutput(next.ID()); err != nil {
		rec.fail()
		return
	}
	c.timer.Reset(opTimeout)
	if !next.await(before, c.timer) {
		rec.fail()
		return
	}
	rec.done(next.presentAt.Load() - t0)
	rec.spans(t0, c.conn, next)
}

func (c *switchClient) counters() clientCounters { return proxyCounters(c.proxy) }

// reference: the panel never changes under switch, so every switch ships a
// whole-screen self-copy and the shadow keeps the pixels of its first
// paint, which the TV requested as PF32.
func (c *switchClient) reference() refCheck {
	return refCheck{home: c.home, got: c.shadow(), newScreen: newTV, devices: c.outs}
}

func (c *switchClient) close() { c.link.close() }

// --- roam -------------------------------------------------------------------

type roamDriver struct{}

func (roamDriver) federated() bool     { return true }
func (roamDriver) updatesPerOp() int64 { return 0 } // updates of ended links are not kept

// roamClient is a supervised phone-in / TV-out session that hops: it drops
// its link and redials through the federation router. Two hops in three
// go back to the same home by token routing and resume the parked session;
// the third names the next home of the client's seeded itinerary and joins
// it cold.
type roamClient struct {
	addr  string
	timed bool
	sup   *core.Supervisor
	phone *inProbe
	keys  *device.Phone // the simulator behind phone
	tv    *outProbe
	timer *time.Timer

	itinerary []string // the client's own homes, in seeded order
	stop      int      // index of the current home
	hops      int
	sent      int64 // universal key events the hops caused

	mu       sync.Mutex
	target   hub.Preamble // where the next dial goes
	conn     *probeConn   // the live link
	dialedAt int64        // UnixNano when the last dial began
	closed   []*probeConn // ended links, for the byte totals
}

func (roamDriver) connect(h *hubProc, i int, cfg runConfig) (client, error) {
	phone := device.NewPhone(fmt.Sprintf("phone-%d", i))
	c := &roamClient{
		addr: h.addr, timed: cfg.traced,
		phone: &inProbe{InputDevice: phone}, keys: phone,
		tv:    newOutProbe(device.NewTVDisplay(fmt.Sprintf("tv-%d", i)), cfg.traced),
		timer: newOpTimer(),
	}
	// The clients split the homes between them, so nobody else's key press
	// damages the panel a client is watching.
	for k := i; k < hubHomes; k += numClients {
		c.itinerary = append(c.itinerary, workload.HomeID(k))
	}
	rng := clientSeed(cfg.seed, i)
	rng.Shuffle(len(c.itinerary), func(a, b int) {
		c.itinerary[a], c.itinerary[b] = c.itinerary[b], c.itinerary[a]
	})
	c.target = hub.Preamble{HomeID: c.itinerary[0]}
	sup, err := core.NewSupervisor(c.dial)
	if err != nil {
		return nil, err
	}
	c.sup = sup
	if err := c.warm(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// dial is the supervisor's transport factory: it routes to whatever the
// harness set as the next target.
func (c *roamClient) dial() (net.Conn, error) {
	c.mu.Lock()
	p := c.target
	c.mu.Unlock()
	t0 := time.Now().UnixNano()
	raw, err := hub.DialHomeToken(c.addr, p.HomeID, p.Token)
	if err != nil {
		return nil, err
	}
	conn := &probeConn{Conn: raw, timed: c.timed}
	c.mu.Lock()
	if c.conn != nil {
		c.closed = append(c.closed, c.conn)
	}
	c.conn, c.dialedAt = conn, t0
	c.mu.Unlock()
	return conn, nil
}

func (c *roamClient) live() *probeConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn
}

// warm attaches the devices, waits for the first frame and makes three
// hops, so both resume and cold join have run once.
func (c *roamClient) warm() error {
	if err := c.sup.AttachInput(c.phone); err != nil {
		return err
	}
	if err := c.sup.SelectInput(c.phone.ID()); err != nil {
		return err
	}
	if err := c.sup.AttachOutput(c.tv); err != nil {
		return err
	}
	before := c.tv.frames.Load()
	if err := c.sup.SelectOutput(c.tv.ID()); err != nil {
		return err
	}
	c.timer.Reset(5 * time.Second)
	if !c.tv.await(before, c.timer) {
		return errors.New("no first frame")
	}
	warm := &recorder{}
	for i := 0; i < 3; i++ {
		c.op(warm)
	}
	if warm.failed > 0 {
		return fmt.Errorf("%d of 3 warm-up hops failed: %v", warm.failed, c.sup.LastError())
	}
	return waitQuiet(c.sup.Proxy(), quiet)
}

func (c *roamClient) op(rec *recorder) {
	cold := c.hops%3 == 2
	c.hops++
	next := hub.Preamble{HomeID: hub.TokenHome, Token: c.sup.Proxy().SessionToken()}
	if cold || next.Token == "" {
		c.stop = (c.stop + 1) % len(c.itinerary)
		next = hub.Preamble{HomeID: c.itinerary[c.stop]}
	}
	c.mu.Lock()
	c.target = next
	c.mu.Unlock()

	before, reconnects := c.tv.frames.Load(), c.sup.Reconnects()
	drain(c.tv.negotiated)
	t0 := time.Now().UnixNano()
	c.live().Close()
	c.timer.Reset(opTimeout)
	// The restore's last step is to negotiate the output; once the
	// supervisor counts the reconnect the new proxy takes input.
	select {
	case <-c.tv.negotiated:
	case <-c.timer.C:
		rec.fail()
		return
	}
	for c.sup.Reconnects() == reconnects {
		select {
		case <-c.timer.C:
			rec.fail()
			return
		default:
			runtime.Gosched()
		}
	}
	resumed := c.sup.Proxy().Resumed()
	if rec.timed {
		rec.connectNS = append(rec.connectNS, c.phone.attachedAt.Load()-c.dialedAtNS())
	}
	if !resumed {
		// A cold join paints the whole panel first.
		if !c.tv.await(before, c.timer) {
			rec.fail()
			return
		}
		before = c.tv.frames.Load()
	}
	conn := c.live()
	conn.arm()
	proxy := c.sup.Proxy()
	forwarded := proxy.Stats().UniversalSent
	tKey := time.Now().UnixNano()
	c.keys.PressKey("#")
	c.sent += 2
	if !c.tv.await(before, c.timer) {
		rec.fail()
		return
	}
	lat := c.tv.presentAt.Load() - t0
	// The user lets go of the key before walking off: the next hop must not
	// cut the link under a release the proxy has not written yet.
	for proxy.Stats().UniversalSent < forwarded+2 {
		select {
		case <-c.timer.C:
			rec.fail()
			return
		default:
			runtime.Gosched()
		}
	}
	rec.done(lat)
	rec.spans(tKey, conn, c.tv)
	if resumed {
		rec.resumeNS = append(rec.resumeNS, lat)
	} else {
		rec.joinNS = append(rec.joinNS, lat)
	}
}

func (c *roamClient) dialedAtNS() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dialedAt
}

func drain(ch chan struct{}) {
	select {
	case <-ch:
	default:
	}
}

// counters sums the socket bytes of every link the client has had —
// preambles and handshakes included — plus the live proxy's totals.
func (c *roamClient) counters() clientCounters {
	cc := proxyCounters(c.sup.Proxy())
	c.mu.Lock()
	cc.wireUp, cc.wireDown = c.conn.sent.Load(), c.conn.received.Load()
	for _, old := range c.closed {
		cc.wireUp += old.sent.Load()
		cc.wireDown += old.received.Load()
	}
	c.mu.Unlock()
	// Updates, coalescing and losses of ended links are not kept: roam's
	// checks use the keys it sent and the hub's own counters.
	cc.keys = c.sent
	return cc
}

func (c *roamClient) quiesce() error { return waitQuiet(c.sup.Proxy(), quiet) }

func (c *roamClient) reference() refCheck {
	p := c.sup.Proxy()
	w, h := p.Client().Size()
	return refCheck{home: c.itinerary[c.stop], got: p.Client().Snapshot(gfx.R(0, 0, w, h)), newScreen: newTV}
}

func (c *roamClient) close() {
	c.sup.Close()
	c.keys.Close()
}
