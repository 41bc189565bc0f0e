package core

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"uniint/internal/gfx"
	"uniint/internal/metrics"
	"uniint/internal/rfb"
	"uniint/internal/trace"
)

// Process-wide instruments, resolved once so the hot paths touch only
// atomics. Under the multi-home hub these aggregate across every proxy in
// the process; per-proxy numbers stay available via Stats.
var (
	mRawEvents      = metrics.Default().Counter("proxy_raw_events_total")
	mDroppedRaw     = metrics.Default().Counter("proxy_dropped_events_total")
	mUniSent        = metrics.Default().Counter("proxy_universal_events_total")
	mFrames         = metrics.Default().Counter("proxy_frames_presented_total")
	mPresentSeconds = metrics.Default().Histogram("proxy_present_seconds", metrics.LatencyBuckets())
	// Device pixels the presented frames said changed: the area of each
	// Frame.Damage, or W·H for a whole frame. Unlike the seconds beside
	// it, it repeats exactly for a given script.
	mPresentPixels = metrics.Default().Counter("proxy_present_pixels_total")

	// Input-pipeline instruments (proxy half). Batches are transport
	// writes: input_batched_events_total / input_batches_total is the
	// events-per-syscall win, input_coalesced_proxy_total the moves that
	// never even reached the wire.
	mInputBatches       = metrics.Default().Counter("input_batches_total")
	mInputBatchedEvents = metrics.Default().Counter("input_batched_events_total")
	mInputProxyCoalesce = metrics.Default().Counter("input_coalesced_proxy_total")
	mInputForwardErrors = metrics.Default().Counter("input_forward_errors_total")
	mInputPumpStops     = metrics.Default().Counter("input_pump_stops_total")
)

// Errors returned by proxy device management.
var (
	ErrUnknownDevice = errors.New("core: unknown device")
	ErrDuplicateID   = errors.New("core: duplicate device id")
	ErrNoSuchClass   = errors.New("core: no attached device of class")
	ErrProxyClosed   = errors.New("core: proxy closed")
	ErrNilPlugin     = errors.New("core: device supplied no plug-in")
)

// Proxy is the UniInt proxy: one universal-interaction client connection
// plus the attached interaction devices and their plug-in modules.
type Proxy struct {
	client *rfb.ClientConn

	mu        sync.Mutex
	inputs    map[string]*inputBinding
	outputs   map[string]*outputBinding
	activeIn  string
	activeOut string
	mirrors   map[string]bool // extra output devices fed alongside the primary
	closed    bool

	// activeInput mirrors activeIn as a binding pointer, updated under mu
	// but readable without it: the event pumps take an atomic snapshot per
	// raw event, so a pointer flood on a non-selected device never
	// contends SelectInput/AttachOutput on the proxy mutex.
	activeInput atomic.Pointer[inputBinding]

	// inMu serializes translation+forwarding of input events and doubles
	// as the switch barrier (the presentMu pattern, input side): after
	// SelectInput or DetachInput returns, no event from a just-deselected
	// or detached device is still in flight. It also guards flusher.
	inMu    sync.Mutex
	flusher inputFlusher

	running atomic.Bool
	rearm   chan struct{}
	wg      sync.WaitGroup

	// presentMu serializes output presentation so mirror/selection
	// changes can wait out an in-flight presentation (strict "no frames
	// after return" semantics for RemoveMirror). Output plug-ins are
	// stateful and only ever called under it.
	presentMu sync.Mutex
	// Presentation scratch, guarded by presentMu: the present path runs
	// once per framebuffer update on every session, so its working set
	// is reused instead of reallocated (the update pipeline's
	// zero-allocation discipline, proxy side).
	presentOutputs []*outputBinding
	presentTargets []*outputBinding
	presentFrames  []Frame

	stats proxyStats
}

type inputBinding struct {
	dev    InputDevice
	plugin InputPlugin
	stop   chan struct{}
}

type outputBinding struct {
	dev    OutputDevice
	plugin OutputPlugin
	seq    atomic.Uint64
}

type proxyStats struct {
	rawEvents     atomic.Int64
	droppedRaw    atomic.Int64
	uniSent       atomic.Int64
	coalesced     atomic.Int64
	batches       atomic.Int64
	forwardErrors atomic.Int64
	frames        atomic.Int64
	inSwitches    atomic.Int64
	outSwitches   atomic.Int64
	convertFails  atomic.Int64
}

// Stats is a snapshot of proxy counters.
type Stats struct {
	RawEvents       int64 // device events received (all attached devices)
	DroppedRaw      int64 // events from non-selected devices, discarded
	UniversalSent   int64 // universal events forwarded to the server
	EventsCoalesced int64 // pointer moves absorbed before reaching the wire
	BatchesFlushed  int64 // batched transport writes carrying the above
	ForwardErrors   int64 // events lost to connection write failures
	FramesPresented int64 // converted frames delivered to output devices
	InputSwitches   int64
	OutputSwitches  int64
	BytesToServer   int64
	BytesFromServer int64
}

// NewProxy wraps an already-handshaked client connection.
func NewProxy(client *rfb.ClientConn) *Proxy {
	return &Proxy{
		client:  client,
		inputs:  make(map[string]*inputBinding),
		outputs: make(map[string]*outputBinding),
		mirrors: make(map[string]bool),
		rearm:   make(chan struct{}, 1),
	}
}

// Dial connects to a UniInt server over conn and returns the proxy.
func Dial(conn net.Conn) (*Proxy, error) {
	return DialResume(conn, "")
}

// DialResume is Dial presenting a resume token from a previous session:
// a server that still holds the parked session reclaims it and ships
// only the damage accumulated while the link was down. Resumed reports
// the verdict; SessionToken carries the token for the next reconnect.
func DialResume(conn net.Conn, token string) (*Proxy, error) {
	client, err := rfb.DialResume(conn, token)
	if err != nil {
		return nil, fmt.Errorf("core: dial server: %w", err)
	}
	c := NewProxy(client)
	// Advertise the compact encodings the proxy can decode, wire-tier
	// first: tile references/installs and dictionary-zlib save the most
	// bytes, then the content-adaptive set.
	if err := client.SetEncodings([]int32{
		rfb.EncTileRef, rfb.EncTileInstall, rfb.EncZlibDict,
		rfb.EncHextile, rfb.EncRRE, rfb.EncZlib, rfb.EncCopyRect, rfb.EncRaw,
	}); err != nil {
		client.Close()
		return nil, err
	}
	return c, nil
}

// SessionToken returns the resume token the server issued for this
// session ("" when the server issues none). Present it to DialResume
// after a link failure to reclaim the server-side session.
func (p *Proxy) SessionToken() string { return p.client.Token() }

// Resumed reports whether this connection reclaimed a parked server-side
// session.
func (p *Proxy) Resumed() bool { return p.client.Resumed() }

// Client exposes the underlying protocol connection (stats, testing).
func (p *Proxy) Client() *rfb.ClientConn { return p.client }

// Run drives the protocol read loop until the connection closes. It must
// be called exactly once, typically on its own goroutine.
//
// Incremental update requests are re-armed by a helper goroutine rather
// than from the read loop itself, so the read loop never contends on the
// connection's write path — a requirement for deadlock freedom over fully
// synchronous transports (net.Pipe).
func (p *Proxy) Run() error {
	p.running.Store(true)
	defer p.running.Store(false)
	quit := make(chan struct{})
	done := make(chan struct{})
	go p.rearmLoop(quit, done)
	err := p.client.Run(proxyHandler{p})
	// The read loop is the proxy's heartbeat: once it exits the session is
	// over, so close the transport to unblock any peer writer.
	p.client.Close()
	close(quit)
	<-done
	return err
}

// rearmLoop issues one incremental FramebufferUpdateRequest per signal.
func (p *Proxy) rearmLoop(quit, done chan struct{}) {
	defer close(done)
	w, h := p.client.Size()
	full := gfx.R(0, 0, w, h)
	for {
		select {
		case <-p.rearm:
			// Errors mean the connection is going down; Run reports it.
			_ = p.client.RequestUpdate(true, full)
		case <-quit:
			return
		}
	}
}

// Close tears down the connection and stops all device pumps.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for _, b := range p.inputs {
		close(b.stop)
	}
	p.mu.Unlock()
	p.client.Close()
	p.wg.Wait()
}

// Stats returns a snapshot of the proxy counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		RawEvents:       p.stats.rawEvents.Load(),
		DroppedRaw:      p.stats.droppedRaw.Load(),
		UniversalSent:   p.stats.uniSent.Load(),
		EventsCoalesced: p.stats.coalesced.Load(),
		BatchesFlushed:  p.stats.batches.Load(),
		ForwardErrors:   p.stats.forwardErrors.Load(),
		FramesPresented: p.stats.frames.Load(),
		InputSwitches:   p.stats.inSwitches.Load(),
		OutputSwitches:  p.stats.outSwitches.Load(),
		BytesToServer:   p.client.BytesSent(),
		BytesFromServer: p.client.BytesReceived(),
	}
}

// --- device attachment ----------------------------------------------------

// AttachInput registers an input device. The device's plug-in module is
// received ("transmitted" in the paper's terms) here; a pump goroutine
// starts draining the device's event stream immediately so that switching
// to it later is instantaneous.
func (p *Proxy) AttachInput(d InputDevice) error {
	plugin := d.InputPlugin()
	if plugin == nil {
		return fmt.Errorf("%w: input %s", ErrNilPlugin, d.ID())
	}
	w, h := p.client.Size()
	plugin.Bind(w, h)

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrProxyClosed
	}
	if _, dup := p.inputs[d.ID()]; dup {
		p.mu.Unlock()
		return fmt.Errorf("%w: input %s", ErrDuplicateID, d.ID())
	}
	b := &inputBinding{dev: d, plugin: plugin, stop: make(chan struct{})}
	p.inputs[d.ID()] = b
	p.mu.Unlock()

	p.wg.Add(1)
	go p.pumpInput(b)
	return nil
}

// DetachInput stops and removes an input device. Detaching the selected
// device leaves no input selected. When DetachInput returns, no event
// from the device is still being translated or forwarded: the detach
// barrier waits out in-flight work (the RemoveMirror pattern).
func (p *Proxy) DetachInput(id string) error {
	p.mu.Lock()
	b, ok := p.inputs[id]
	if !ok {
		p.mu.Unlock()
		return fmt.Errorf("%w: input %s", ErrUnknownDevice, id)
	}
	delete(p.inputs, id)
	if p.activeIn == id {
		p.activeIn = ""
		p.activeInput.Store(nil)
	}
	p.mu.Unlock()
	close(b.stop)
	p.inputBarrier()
	return nil
}

// inputBarrier waits out any in-flight translation/forward so selection
// and detachment changes are strict: once the mutating call returns, no
// event admitted under the old selection is still on its way upstream.
func (p *Proxy) inputBarrier() {
	p.inMu.Lock() // barrier: drain any in-flight translation/forward
	p.inMu.Unlock()
}

// AttachOutput registers an output device and receives its plug-in module.
func (p *Proxy) AttachOutput(d OutputDevice) error {
	plugin := d.OutputPlugin()
	if plugin == nil {
		return fmt.Errorf("%w: output %s", ErrNilPlugin, d.ID())
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrProxyClosed
	}
	if _, dup := p.outputs[d.ID()]; dup {
		return fmt.Errorf("%w: output %s", ErrDuplicateID, d.ID())
	}
	p.outputs[d.ID()] = &outputBinding{dev: d, plugin: plugin}
	return nil
}

// DetachOutput removes an output device.
func (p *Proxy) DetachOutput(id string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.outputs[id]; !ok {
		return fmt.Errorf("%w: output %s", ErrUnknownDevice, id)
	}
	delete(p.outputs, id)
	if p.activeOut == id {
		p.activeOut = ""
	}
	return nil
}

// InputIDs lists attached input devices.
func (p *Proxy) InputIDs() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.inputs))
	for id := range p.inputs {
		out = append(out, id)
	}
	return out
}

// OutputIDs lists attached output devices.
func (p *Proxy) OutputIDs() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.outputs))
	for id := range p.outputs {
		out = append(out, id)
	}
	return out
}

// --- selection and switching (C1, C2) --------------------------------------

// SelectInput makes the named device the session's input. Events from all
// other input devices are discarded while it is selected. The switch is
// strict: when SelectInput returns, no event from the previously selected
// device is still being translated or forwarded (the selection barrier
// covers in-flight work, mirroring RemoveMirror's presentMu pattern).
func (p *Proxy) SelectInput(id string) error {
	p.mu.Lock()
	b, ok := p.inputs[id]
	if !ok {
		p.mu.Unlock()
		return fmt.Errorf("%w: input %s", ErrUnknownDevice, id)
	}
	changed := p.activeIn != id
	if changed {
		p.activeIn = id
		p.activeInput.Store(b)
		p.stats.inSwitches.Add(1)
	}
	p.mu.Unlock()
	if changed {
		p.inputBarrier()
	}
	return nil
}

// SelectOutput makes the named device the session's display. The proxy
// renegotiates the wire pixel format to the device's preference and
// demands a full update so the new device starts with a complete frame.
func (p *Proxy) SelectOutput(id string) error {
	p.mu.Lock()
	b, ok := p.outputs[id]
	if !ok {
		p.mu.Unlock()
		return fmt.Errorf("%w: output %s", ErrUnknownDevice, id)
	}
	changed := p.activeOut != id
	p.activeOut = id
	p.mu.Unlock()

	if changed {
		p.stats.outSwitches.Add(1)
		return p.negotiateOutput(b, false)
	}
	return nil
}

// negotiateOutput renegotiates the wire pixel format for the output
// binding and demands a repaint — full for a user-visible device switch,
// incremental on a resumed restore (the server preserved the session and
// ships only the detach-window damage).
func (p *Proxy) negotiateOutput(b *outputBinding, incremental bool) error {
	if err := p.client.SetPixelFormat(b.plugin.PixelFormat()); err != nil {
		return err
	}
	w, h := p.client.Size()
	return p.client.RequestUpdate(incremental, gfx.R(0, 0, w, h))
}

// restoreOutput re-applies an output selection on a rebuilt connection
// (the Supervisor's reconnect path). Unlike SelectOutput it always
// renegotiates — the new connection has no negotiated state yet — and on
// a resumed session requests incrementally instead of forcing the full
// repaint a cold rejoin needs.
func (p *Proxy) restoreOutput(id string, resumed bool) error {
	p.mu.Lock()
	b, ok := p.outputs[id]
	if !ok {
		p.mu.Unlock()
		return fmt.Errorf("%w: output %s", ErrUnknownDevice, id)
	}
	p.activeOut = id
	p.mu.Unlock()
	return p.negotiateOutput(b, resumed)
}

// SelectInputByClass selects the first attached input device of the given
// class (deterministically: lowest id wins).
func (p *Proxy) SelectInputByClass(class string) error {
	id, ok := p.findByClass(class, true)
	if !ok {
		return fmt.Errorf("%w: input class %q", ErrNoSuchClass, class)
	}
	return p.SelectInput(id)
}

// SelectOutputByClass selects the first attached output device of the
// given class.
func (p *Proxy) SelectOutputByClass(class string) error {
	id, ok := p.findByClass(class, false)
	if !ok {
		return fmt.Errorf("%w: output class %q", ErrNoSuchClass, class)
	}
	return p.SelectOutput(id)
}

func (p *Proxy) findByClass(class string, input bool) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	best := ""
	if input {
		for id, b := range p.inputs {
			if b.dev.Class() == class && (best == "" || id < best) {
				best = id
			}
		}
	} else {
		for id, b := range p.outputs {
			if b.dev.Class() == class && (best == "" || id < best) {
				best = id
			}
		}
	}
	return best, best != ""
}

// AddMirror feeds the named attached output device with converted frames
// in addition to the primary output — the extension scenario where the TV
// shows the panel for everyone in the room while the user's PDA shows it
// too. The wire pixel format stays the primary device's preference;
// mirrors convert from the shared shadow framebuffer.
func (p *Proxy) AddMirror(id string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.outputs[id]; !ok {
		return fmt.Errorf("%w: output %s", ErrUnknownDevice, id)
	}
	p.mirrors[id] = true
	return nil
}

// RemoveMirror stops mirroring to the device. When it returns, no
// further frames reach the device: an in-flight presentation (which
// snapshots its targets before converting) is waited out.
func (p *Proxy) RemoveMirror(id string) {
	p.mu.Lock()
	delete(p.mirrors, id)
	p.mu.Unlock()
	p.presentMu.Lock() // barrier: drain any in-flight presentation
	p.presentMu.Unlock()
}

// Mirrors lists the devices currently mirrored.
func (p *Proxy) Mirrors() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.mirrors))
	for id := range p.mirrors {
		out = append(out, id)
	}
	return out
}

// ActiveInput returns the selected input device id ("" when none).
func (p *Proxy) ActiveInput() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.activeIn
}

// ActiveOutput returns the selected output device id ("" when none).
func (p *Proxy) ActiveOutput() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.activeOut
}

// --- input pipeline ---------------------------------------------------------

// pumpInput drains one device's event stream for the lifetime of its
// attachment. Events are translated and forwarded only while the device is
// selected; otherwise they are counted and dropped, keeping the device's
// channel from backing up across switches. The selection check is an
// atomic snapshot — a pointer flood on a non-selected device takes no
// lock at all.
//
// Forwarding is batched: an event plus whatever burst queued up behind it
// is translated into one coalescing batch and shipped with one transport
// write. A forward failure is fatal for the connection (the buffered
// writer sticks its error), so the pump counts the loss and stops instead
// of silently discarding every subsequent event.
func (p *Proxy) pumpInput(b *inputBinding) {
	defer p.wg.Done()
	for {
		select {
		case ev, ok := <-b.dev.Events():
			if !ok {
				return
			}
			cont, fatal := p.pumpConsume(b, ev)
			if !cont {
				if fatal {
					mInputPumpStops.Inc()
				}
				return
			}
		case <-b.stop:
			return
		}
	}
}

// pumpConsume handles one raw event plus any burst already queued behind
// it, forwarding the whole run as one batched flush. cont reports whether
// the pump should keep running; fatal marks a connection write failure
// (as opposed to orderly device shutdown).
func (p *Proxy) pumpConsume(b *inputBinding, ev RawEvent) (cont, fatal bool) {
	p.stats.rawEvents.Add(1)
	mRawEvents.Inc()
	if p.activeInput.Load() != b {
		p.stats.droppedRaw.Add(1)
		mDroppedRaw.Inc()
		return true, false
	}
	p.inMu.Lock()
	defer p.inMu.Unlock()
	// Re-check under the barrier mutex: a switch that completed between
	// the atomic snapshot and the lock has already returned to its caller,
	// so this event must no longer be forwarded.
	if p.activeInput.Load() != b {
		p.stats.droppedRaw.Add(1)
		mDroppedRaw.Inc()
		return true, false
	}
	// The sampling lottery runs here, where the proxy accepts a device
	// event for forwarding: a sampled interaction's id rides the head
	// event through batching, the wire, and the whole server pipeline.
	tid := trace.Start()
	t0 := int64(0)
	if tid != 0 {
		t0 = trace.Now()
	}
	for _, ue := range b.plugin.Translate(ev) {
		p.flusher.add(ue, tid)
	}
	// Burst batching: fold events that already arrived behind this one
	// into the same batch, so a pointer flood becomes one write. While
	// inMu is held a concurrent switch cannot complete, so the events
	// are still legitimately from the selected device.
	alive := true
	for alive && !p.flusher.full() {
		select {
		case next, ok := <-b.dev.Events():
			if !ok {
				alive = false
				break
			}
			p.stats.rawEvents.Add(1)
			mRawEvents.Inc()
			for _, ue := range b.plugin.Translate(next) {
				p.flusher.add(ue, 0)
			}
		case <-b.stop:
			alive = false
		default:
			if err := p.finishFlush(tid, t0); err != nil {
				return false, true
			}
			return alive, false
		}
	}
	if err := p.finishFlush(tid, t0); err != nil {
		return false, true
	}
	return alive, false
}

// finishFlush ships the pending batch and, when the batch carried a
// sampled interaction, records its proxy_flush span — acceptance to
// transport write, translation and coalescing included.
func (p *Proxy) finishFlush(tid uint64, t0 int64) error {
	err := p.flushLocked()
	if tid != 0 && err == nil {
		trace.Record(tid, trace.StageProxyFlush, t0, trace.Now())
	}
	return err
}

// flushLocked ships the pending batch (inMu held) and settles the stats:
// forwarded events count as sent, events lost to a write error count as
// forward errors — never silently dropped.
func (p *Proxy) flushLocked() error {
	sent, coalesced, err := p.flusher.flush(p.client)
	if coalesced > 0 {
		p.stats.coalesced.Add(coalesced)
		mInputProxyCoalesce.Add(coalesced)
	}
	if sent == 0 {
		return err
	}
	if err != nil {
		p.stats.forwardErrors.Add(sent)
		mInputForwardErrors.Add(sent)
		return err
	}
	p.stats.uniSent.Add(sent)
	mUniSent.Add(sent)
	p.stats.batches.Add(1)
	mInputBatches.Inc()
	mInputBatchedEvents.Add(sent)
	return nil
}

// Inject translates and forwards one event as if it came from the named
// attached device; used by scripted scenarios and benchmarks to bypass the
// device channel (the pump path is exercised by the device simulators).
func (p *Proxy) Inject(deviceID string, ev RawEvent) error {
	return p.inject(deviceID, 1, func(b *inputBinding, tid uint64) {
		for _, ue := range b.plugin.Translate(ev) {
			p.flusher.add(ue, tid)
		}
	})
}

// InjectBatch translates and forwards a burst of events from the named
// attached device as one coalescing batch: consecutive pointer moves
// collapse to their final position and the whole burst ships with a
// single transport write.
func (p *Proxy) InjectBatch(deviceID string, evs []RawEvent) error {
	return p.inject(deviceID, int64(len(evs)), func(b *inputBinding, tid uint64) {
		for _, ev := range evs {
			for _, ue := range b.plugin.Translate(ev) {
				p.flusher.add(ue, tid)
				tid = 0 // only the head event of a batch carries the trace
			}
		}
	})
}

// inject resolves the device, applies the selection barrier and runs
// translate (which feeds the flusher) under it, then flushes once. n is
// the raw-event count the call carries, so drop accounting matches the
// selected path's per-event counting.
func (p *Proxy) inject(deviceID string, n int64, translate func(b *inputBinding, tid uint64)) error {
	p.mu.Lock()
	b, ok := p.inputs[deviceID]
	p.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: input %s", ErrUnknownDevice, deviceID)
	}
	if n <= 0 {
		return nil
	}
	if p.activeInput.Load() != b {
		p.stats.rawEvents.Add(n)
		mRawEvents.Add(n)
		p.stats.droppedRaw.Add(n)
		mDroppedRaw.Add(n)
		return nil
	}
	p.inMu.Lock()
	defer p.inMu.Unlock()
	p.stats.rawEvents.Add(n)
	mRawEvents.Add(n)
	if p.activeInput.Load() != b { // deselected between snapshot and barrier
		p.stats.droppedRaw.Add(n)
		mDroppedRaw.Add(n)
		return nil
	}
	tid := trace.Start()
	t0 := int64(0)
	if tid != 0 {
		t0 = trace.Now()
	}
	translate(b, tid)
	return p.finishFlush(tid, t0)
}

// --- output pipeline ---------------------------------------------------------

// proxyHandler adapts the protocol callbacks onto the proxy.
type proxyHandler struct{ p *Proxy }

var _ rfb.ClientHandler = proxyHandler{}

// Updated implements rfb.ClientHandler: pass the update's damage to the
// output plug-ins, convert for the selected output device, present, and
// keep the demand-driven update loop rolling by signalling the re-arm
// goroutine (classic thin-client viewer behaviour, off the read path).
func (h proxyHandler) Updated(rects []gfx.Rect) {
	h.p.present(rects, true)
	select {
	case h.p.rearm <- struct{}{}:
	default: // a re-arm is already pending
	}
}

// Bell implements rfb.ClientHandler (ignored).
func (proxyHandler) Bell() {}

// CutText implements rfb.ClientHandler (ignored).
func (proxyHandler) CutText(string) {}

// present converts the shadow framebuffer with the active output plug-in
// (and each mirror's plug-in) and delivers the frames. Presents are
// serialized: the target snapshot and the deliveries happen under
// presentMu so RemoveMirror can use it as a barrier.
//
// When the caller knows what changed (damaged: an update's rectangles,
// possibly none), every attached output's plug-in hears it first —
// selected or not, so a device selected later repaints exactly what it
// missed. Otherwise no plug-in is told anything and the targets convert
// the whole framebuffer.
func (p *Proxy) present(rects []gfx.Rect, damaged bool) {
	p.presentMu.Lock()
	defer p.presentMu.Unlock()
	p.mu.Lock()
	outputs := p.presentOutputs[:0]
	if damaged {
		for _, b := range p.outputs {
			outputs = append(outputs, b)
		}
	}
	p.presentOutputs = outputs
	targets := p.presentTargets[:0]
	if b := p.outputs[p.activeOut]; b != nil {
		targets = append(targets, b)
	}
	for id := range p.mirrors {
		if id == p.activeOut {
			continue
		}
		if b := p.outputs[id]; b != nil {
			targets = append(targets, b)
		}
	}
	p.presentTargets = targets
	p.mu.Unlock()
	for _, b := range outputs {
		b.plugin.Damaged(rects)
	}
	if len(targets) == 0 {
		return
	}
	start := time.Now()
	frames := p.presentFrames[:0]
	for range targets {
		frames = append(frames, Frame{})
	}
	p.presentFrames = frames
	p.client.WithFramebuffer(func(fb *gfx.Framebuffer) {
		for i, b := range targets {
			frames[i] = b.plugin.Convert(fb)
		}
	})
	for i, b := range targets {
		frames[i].Seq = b.seq.Add(1)
		// Counted before the device sees the frame, so whoever waits on
		// the device reads a total that includes it.
		mPresentPixels.Add(framePixels(frames[i]))
		b.dev.Present(frames[i])
		p.stats.frames.Add(1)
		mFrames.Inc()
	}
	mPresentSeconds.ObserveDuration(time.Since(start))
}

// framePixels is the device pixels f says changed.
func framePixels(f Frame) int64 {
	if f.Damage == nil {
		return int64(f.W) * int64(f.H)
	}
	var n int64
	for _, r := range f.Damage {
		n += int64(r.Area())
	}
	return n
}

// RefreshOutput forces a full-frame conversion and presentation without
// waiting for server damage (used right after attaching a display).
func (p *Proxy) RefreshOutput() { p.present(nil, false) }
