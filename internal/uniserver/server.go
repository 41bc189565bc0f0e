// Package uniserver implements the UniInt server of the paper: the server
// half of the thin-client system, run where the home appliance application
// executes. It exports a toolkit display session over the universal
// interaction protocol — shipping framebuffer rectangles to the UniInt
// proxy on demand and injecting the proxy's universal keyboard/mouse
// events into the window system.
//
// Matching the paper's claim that "we need not modify existing servers of
// thin-client systems", the server contains no knowledge of interaction
// devices: all device heterogeneity is handled by the proxy.
package uniserver

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"uniint/internal/gfx"
	"uniint/internal/metrics"
	"uniint/internal/rfb"
	"uniint/internal/sched"
	"uniint/internal/toolkit"
	"uniint/internal/trace"
)

// Process-wide instruments, resolved once so the hot paths touch only
// atomics. Under the multi-home hub these aggregate across every home's
// server in the process.
var (
	mSessions       = metrics.Default().Gauge("server_sessions")
	mKeyEvents      = metrics.Default().Counter("server_key_events_total")
	mPointerEvents  = metrics.Default().Counter("server_pointer_events_total")
	mUpdatesSent    = metrics.Default().Counter("server_updates_sent_total")
	mUpdateBytes    = metrics.Default().Counter("server_update_bytes_total")
	mUpdateDrops    = metrics.Default().Counter("server_update_drops_total")
	mRectsCoalesced = metrics.Default().Counter("server_rects_coalesced_total")
	mEncodeSeconds  = metrics.Default().Histogram("server_encode_seconds", metrics.LatencyBuckets())
)

// Server exports one display session to any number of proxy connections.
type Server struct {
	display *toolkit.Display
	name    string

	mu       sync.Mutex
	sessions map[*session]struct{}
	closed   bool
	wg       sync.WaitGroup

	// pumpMu serializes render pumps; pumpBuf/pumpSess recycle the rect
	// and session-snapshot storage so the damage→render→distribute path
	// allocates nothing in steady state.
	pumpMu   sync.Mutex
	pumpBuf  []gfx.Rect
	pumpSess []*session

	// tiles is the shared content-addressed tile store the wire tier
	// publishes encoded tile bodies to (nil: no cross-session sharing;
	// each session still runs its own tile window).
	tiles *rfb.TileCache

	// The detach lot (lot.go): disconnected sessions parked under their
	// resume token, waiting out parkTTL for the owner to return. live is
	// its other half, the connected sessions by token (for takeover); both
	// are guarded by lotMu and a token is in exactly one of them.
	parkTTL    time.Duration
	parkCap    int
	lotMu      sync.Mutex
	lot        map[string]*parkedSession
	live       map[string]*session
	lotTimer   *sched.Timer // janitor on the shared wheel, armed on demand
	lotSweepAt time.Time
}

// HandshakeTimeout bounds the protocol handshake, so a stalled peer can
// neither park a handler goroutine forever nor pin a claimed detach-lot
// entry past reclaim.
const HandshakeTimeout = 10 * time.Second

// Config holds a Server's tunables. The zero value selects every default;
// uniint.Options carries the same fields with the same meaning, so the
// facade hands them through unchanged.
type Config struct {
	// Tiles, when non-nil, is a shared content-addressed tile store:
	// sessions publish freshly encoded tile bodies to it and reuse bodies
	// other sessions already paid to encode. Passing the SAME cache to many
	// servers (the hub does, one per home) extends the sharing across
	// homes — a hub's homes render nearly identical control panels. Nil
	// keeps tile reuse within each session.
	Tiles *rfb.TileCache
	// ParkTTL is how long a disconnected session stays reclaimable in the
	// detach lot. Zero selects DefaultParkTTL; negative disables parking,
	// so every disconnect tears its session down.
	ParkTTL time.Duration
	// ParkCapacity bounds the detach lot (at capacity the oldest parked
	// session is expired to make room). Zero selects DefaultParkCapacity;
	// negative disables parking.
	ParkCapacity int
}

// New creates a server for the given display. name is announced to
// clients during the handshake.
func New(display *toolkit.Display, name string, cfg Config) *Server {
	s := &Server{
		display:  display,
		name:     name,
		sessions: make(map[*session]struct{}),
		lot:      make(map[string]*parkedSession),
		live:     make(map[string]*session),
		tiles:    cfg.Tiles,
		parkTTL:  cfg.ParkTTL,
		parkCap:  cfg.ParkCapacity,
	}
	// The one place the park knobs are normalised: zero is the default,
	// and either knob negative turns parking off (parkTTL <= 0 from here
	// on; see retire and Attach).
	if s.parkTTL == 0 {
		s.parkTTL = DefaultParkTTL
	}
	if s.parkCap == 0 {
		s.parkCap = DefaultParkCapacity
	}
	if s.parkTTL < 0 || s.parkCap < 0 {
		s.parkTTL = 0
	}
	display.OnDamage(s.pump)
	return s
}

// Attach performs the protocol handshake on conn and serves the session on
// the caller's goroutine: the handshake is bounded by HandshakeTimeout
// (brief when the client pipelined its hello, see rfb.ClientHello), then
// the goroutine stays parked in the connection's blocking read loop — the
// stock thin-client server shape — while updates and input dispatch run as
// turns on the process worker pool. Attach returns the read loop's error
// once the peer has disconnected and the session has fully retired (parked
// in the lot, or settled), or the handshake's error when no session
// started; either way nothing of the connection outlives the call.
//
// A client presenting a live resume token reclaims its parked session
// during the handshake: the preserved damage and input queue carry over,
// so the resync ships only what changed while the link was down. A token
// whose session is still connected takes it over: the stale link is closed
// and parks first (lot.go, takeover). On disconnect the session parks in
// the detach lot (unless parking is disabled or the server is closing).
func (s *Server) Attach(conn net.Conn) error {
	w, h := s.display.Size()
	// A hub-routed connection carries its routing span (preamble read +
	// home resolution); remember it so every traced interaction arriving
	// on this connection can attach the hub_route stage.
	routeStart, routeEnd, _ := trace.RouteSpan(conn)
	// The session exists before the handshake so the token the handshake
	// issues is findable (live index) the moment a client can know it.
	sess := &session{
		srv:        s,
		link:       conn,
		retired:    make(chan struct{}),
		routeStart: routeStart,
		routeEnd:   routeEnd,
		bounds:     gfx.R(0, 0, w, h),
	}
	var reclaimed *parkedSession
	ex := func(presented string) (string, bool) {
		if s.parkTTL > 0 && presented != "" {
			if ps := s.claimParked(presented, w, h, sess); ps != nil {
				reclaimed, sess.token = ps, presented
				return presented, true
			}
			mSessResumeMiss.Inc()
		}
		sess.token = newSessionToken()
		if s.parkTTL > 0 && sess.token != "" {
			s.lotMu.Lock()
			s.live[sess.token] = sess
			s.lotMu.Unlock()
		}
		return sess.token, false
	}
	// The handshake is bounded: a peer that stalls mid-handshake (after
	// presenting a resume token, say) must fail within the deadline so
	// its claim releases and the parked session stays reclaimable —
	// unbounded, a half-open link would hold the claim forever (the lot
	// janitor skips claimed entries). The bound is a wheel timer, not a
	// conn deadline: a process full of mid-handshake peers arms O(1) OS
	// timers, and transports without deadline support work too.
	hsTimer := sched.Shared().AfterFunc(HandshakeTimeout, func() { conn.Close() })
	rc, err := rfb.NewEdgeServerConn(conn, w, h, s.name, ex)
	hsTimer.Stop()
	if err != nil {
		if reclaimed != nil {
			// Claimed during the handshake, but the handshake failed to
			// complete: the session goes back to waiting in the lot.
			s.releaseClaim(reclaimed)
		}
		s.unlist(sess)
		return err
	}
	sess.conn = rc
	sess.dirty = gfx.NewDamage(sess.bounds, 16)
	sess.outbox = gfx.NewDamage(sess.bounds, 16)
	sess.ws = rfb.NewWireState(s.tiles, w, h) // a resume distrusts it (adopt)
	// The tasks exist before the session is visible to the pump, so a
	// damage kick arriving mid-register always has a target.
	sess.writeTask = sched.SharedPool().NewTask(sess.writerTurn)
	sess.dispatchTask = sched.SharedPool().NewTask(sess.dispatchTurn)
	// register atomically swaps a reclaimed lot entry into the live
	// session set (under the pump mutex, so no damage falls between the
	// lot and the session) and adopts its state. It also joins the session
	// to the server's wait group, so Close blocks until teardown has fully
	// retired it.
	if !s.register(sess, reclaimed) {
		rc.Close()
		s.unlist(sess)
		return errors.New("uniserver: server closed")
	}
	mSessions.Inc()
	if reclaimed != nil {
		// Input that sat out the detach window dispatches now. The damage
		// that did waits for the client's own request — the reconnecting
		// client sends SetEncodings, then one, on the same ordered stream
		// — so the resync is encoded with what this connection negotiated.
		sess.wakeDispatch()
	}
	err = rc.Serve(sess)
	sess.teardown()
	return err
}

// teardown retires a session whose read loop has returned: stop the write
// and dispatch tasks, drain the input queue, and retire — one atomic step
// that removes the session from the pump set and parks the remaining state
// for a reconnect (or settles the accounting when parking is off). Damage
// pumped until that step still lands on the session and carries into the
// lot with it.
func (c *session) teardown() {
	c.conn.Close()
	c.writeTask.Stop()
	c.dispatchTask.Stop()
	leftovers := c.inq.take()
	if !c.srv.retire(c, leftovers) && len(leftovers) > 0 {
		mInputAbandoned.Add(int64(len(leftovers)))
	}
	// Only now is the session gone for an observer: server_sessions drops
	// after retire has settled the park accounting, so a scrape that reads
	// the gauge back at its baseline reads balanced session_* counters.
	mSessions.Dec()
	c.srv.unlist(c)
	c.srv.wg.Done()
}

// Serve accepts proxy connections from ln until the listener closes.
func (s *Server) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.wg.Add(1)
		// goroutine-ok: one parked reader per accepted conn is Attach's
		// documented cost.
		go func() {
			defer s.wg.Done()
			_ = s.Attach(conn)
		}()
	}
}

// Close disconnects every session and waits for handlers started by Serve.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	sessions := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		sess.conn.Close()
	}
	s.wg.Wait()
	s.drainLot()
}

// Sessions returns the number of connected proxies.
func (s *Server) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// pump runs after the display accumulated new damage: render once, then
// offer the fresh rectangles to every session. Pumps are serialized so the
// recycled rect buffer is never handed out twice concurrently.
func (s *Server) pump() {
	s.pumpMu.Lock()
	defer s.pumpMu.Unlock()
	rects, tid := s.display.RenderTraceInto(s.pumpBuf)
	s.pumpBuf = rects
	if len(rects) == 0 {
		return
	}
	// Snapshot the session set so s.mu is not held across the per-session
	// coalescing work (connection setup/teardown stays unblocked).
	s.mu.Lock()
	sessions := s.pumpSess[:0]
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		sess.addDirty(rects)
		if tid != 0 {
			// This render carries a traced interaction's damage: mark the
			// session so the flush that ships it closes the trace. First
			// trace wins until a flush clears the mark (inputMark pattern).
			sess.traceMark.CompareAndSwap(0, tid)
		}
	}
	s.pumpSess = sessions
	// Parked sessions accumulate the same damage: it is exactly what the
	// incremental resync ships when their owner reconnects.
	s.addParkedDamage(rects)
}

// session is one proxy connection: per-client dirty tracking plus the
// demand-driven update state machine of the protocol.
//
// Updates are transmitted by the session's writer task — turns on the
// process worker pool, never the read loop. This keeps the read loop
// (and the GUI goroutines firing damage hooks) from ever blocking on a
// slow transport — without it, a synchronous in-process pipe can form a
// cycle: the read loop blocks writing an update, the peer blocks writing
// a request, and neither side drains the other.
//
// The writer drains an outbox damage set rather than a queue of encoded
// updates: while a write is in flight on a slow transport, every newly
// requested rectangle merges into the pending gfx.Damage and the next
// flush ships the coalesced region as ONE FramebufferUpdate. Backpressure
// therefore reduces update count instead of growing a queue, and pixels
// are encoded at most once per flush no matter how many damage events
// landed on them.
type session struct {
	srv    *Server
	conn   *rfb.ServerConn
	token  string // resume token; keys the live index, then the detach lot
	bounds gfx.Rect

	// link is the transport under conn, known before the handshake; closing
	// it is how a takeover ends the session. retired is closed once the
	// session is over — parked (or settled) by teardown, or refused before
	// it began — and is what a takeover and a drain wait on.
	link    net.Conn
	retired chan struct{}

	// The session's schedulable work, as run-queue tasks on the process
	// pool: a kick (wake/wakeDispatch) marks the task runnable, it runs the
	// turn, and the task state machine guarantees at-most-once queueing no
	// matter how many kicks land. An idle session holds these two structs
	// and the goroutine parked in Attach's read loop — no timer, and no
	// runnable goroutine.
	writeTask    *sched.Task
	dispatchTask *sched.Task

	// Input events are dispatched by the dispatch task draining inq (see
	// inputqueue.go), the input-side twin of the writer: a home app
	// stalling inside a widget callback — a synchronous HAVi round trip —
	// can no longer stop the read loop from draining framebuffer
	// requests. lastPtrMask is read-loop-only state marking pure moves;
	// inputMark carries the oldest undispatched input's enqueue time into
	// the writer for the input→damage→update latency histogram.
	inq         inputQueue
	lastPtrMask uint8
	inputMark   atomic.Int64

	// routeStart/routeEnd hold the hub's routing span for this connection
	// (zero when not hub-routed); traceMark carries the sampled trace id
	// of the render the writer is about to ship (set by the pump, cleared
	// on successful flush — the inputMark pattern for trace ids).
	routeStart, routeEnd int64
	traceMark            atomic.Uint64

	// reqs parks protocol update requests for the writer, which pumps
	// the renderer and runs the request state machine in arrival order.
	// Requests used to be processed synchronously on the read loop, which
	// took the display widget lock there — so a dispatch stalled inside a
	// widget callback blocked framebuffer-request reads, exactly the
	// coupling the input queue exists to remove. reqs/reqSpare are
	// guarded by mu and ping-pong so the steady state allocates nothing.
	reqs     []rfb.UpdateRequest
	reqSpare []rfb.UpdateRequest

	mu         sync.Mutex
	dirty      *gfx.Damage       // damage with no outstanding request yet
	dirtySpare []gfx.Rect        // recycled storage ping-ponged through dirty.TakeInto
	pending    rfb.UpdateRequest // parked incremental request
	hasPending bool
	outbox     *gfx.Damage // requested damage awaiting the writer
	owedEmpty  int         // zero-rect replies owed (empty-region requests)

	// fedResync marks a session resumed from a MIGRATED lot entry: the
	// first update it ships is the cross-node resync, counted into
	// fed_resync_bytes_total. Writer-turn-only after adopt seeds it.
	fedResync bool

	// ws is the wire tier's model of the client (shadow framebuffer +
	// tile window); writer-turn-only. Unlike turn scratch it is client
	// STATE, not scratch — but not state the lot keeps: a resumed session
	// starts a fresh one, distrusted (adopt), and it is Reset whenever the
	// model can no longer be trusted (encode error, failed send). Drain and
	// encode scratch is NOT pinned here: writer
	// turns check a turnScratch out of the central pool, so that memory
	// scales with concurrent turns, not sessions.
	ws *rfb.WireState
}

// turnScratch is the rect-drain and update-assembly scratch a writer turn
// checks out for its duration. Pooled centrally: O(workers) of it exists
// however many sessions are parked on the run-queue.
type turnScratch struct {
	rects []gfx.Rect
	urs   []rfb.UpdateRect
}

var turnScratchPool = sync.Pool{New: func() any { return new(turnScratch) }}

// enqueue merges requested rectangles into the outbox and wakes the
// writer. Rectangles landing while the outbox is non-empty are coalescing
// with an update the writer has not shipped yet — the backpressure path.
func (c *session) enqueue(rects []gfx.Rect) {
	c.mu.Lock()
	coalescing := !c.outbox.Empty()
	n := 0
	for _, r := range rects {
		if !r.Empty() {
			c.outbox.Add(r)
			n++
		}
	}
	c.mu.Unlock()
	if n == 0 {
		return
	}
	if coalescing {
		mRectsCoalesced.Add(int64(n))
	}
	c.wake()
}

func (c *session) wake() { c.writeTask.Kick() }

// writerTurn is the writer task's turn: it owns all update transmission
// for the session. One turn processes the parked protocol requests, drains
// the outbox (and owed empty replies), encodes under the display lock with
// pooled scratch, and ships one FramebufferUpdate. Work arriving mid-turn
// kicks the task again, so the pool re-queues it — nothing is lost and
// nothing busy-waits.
func (c *session) writerTurn() {
	ts := turnScratchPool.Get().(*turnScratch)
	// Process parked protocol requests first: render pending damage on
	// the writer's time, never the read loop's — the pump takes the
	// display widget lock, and a stalled widget callback must only delay
	// updates, not request reads. The resulting rects land in the outbox
	// before it drains below, so they ship within this same turn.
	c.mu.Lock()
	reqs := c.reqs
	if c.reqSpare != nil {
		c.reqs = c.reqSpare[:0]
		c.reqSpare = nil
	} else {
		c.reqs = nil
	}
	c.mu.Unlock()
	if len(reqs) > 0 {
		// Ensure damage from before these requests is rendered.
		c.srv.pump()
		for _, req := range reqs {
			c.processRequest(req)
		}
	}
	c.mu.Lock()
	if c.reqSpare == nil {
		c.reqSpare = reqs[:0]
	}
	rects := c.outbox.TakeInto(ts.rects[:0])
	empties := c.owedEmpty
	c.owedEmpty = 0
	c.mu.Unlock()
	for i := 0; i < empties; i++ {
		if err := c.conn.SendEmptyUpdate(); err != nil {
			mUpdateDrops.Inc()
		} else {
			mUpdatesSent.Inc()
		}
	}
	if len(rects) > 0 {
		c.flush(rects, ts)
	}
	ts.rects = rects
	turnScratchPool.Put(ts)
}

// flush encodes the coalesced rectangles (adaptive per-rect encoding on
// pooled scratch) and transmits them as one FramebufferUpdate.
func (c *session) flush(rects []gfx.Rect, ts *turnScratch) {
	var (
		prep *rfb.PreparedUpdate
		err  error
	)
	tid := c.traceMark.Load()
	start := time.Now()
	c.srv.display.WithFramebuffer(func(fb *gfx.Framebuffer) {
		// The session's geometry is fixed at handshake, but the display
		// may have been resized since: clip to the live framebuffer so
		// the encoder never walks outside it.
		urs := ts.urs[:0]
		for _, r := range rects {
			r = r.Intersect(fb.Bounds())
			if r.Empty() {
				continue
			}
			urs = append(urs, rfb.UpdateRect{Rect: r, Encoding: rfb.EncAdaptive})
		}
		ts.urs = urs
		if len(urs) == 0 {
			return
		}
		prep, err = c.conn.PrepareUpdateWire(fb, urs, c.ws)
	})
	encDur := time.Since(start)
	if tid != 0 {
		encEnd := start.UnixNano() + int64(encDur)
		trace.Record(tid, trace.StageEncode, start.UnixNano(), encEnd)
		mEncodeSeconds.ObserveExemplar(encDur.Seconds(), tid)
	} else {
		mEncodeSeconds.ObserveDuration(encDur)
	}
	if prep == nil && err == nil {
		// Everything clipped away (display shrunk under the session):
		// answer with an empty update to keep request/reply pairing.
		if c.conn.SendEmptyUpdate() != nil {
			mUpdateDrops.Inc()
		} else {
			mUpdatesSent.Inc()
		}
		return
	}
	if err != nil {
		return // encoding failure: drop the update, connection stays up
	}
	size := prep.Size()
	sendT0 := int64(0)
	if tid != 0 {
		sendT0 = time.Now().UnixNano()
	}
	if err := c.conn.SendPrepared(prep); err != nil {
		// Transport failure: the read loop will observe it and tear the
		// session down. The pixels were consumed from the dirty set but
		// never reached the client — put them back, so the state that
		// parks in the detach lot is complete and the resync after a
		// resume re-covers them instead of leaving the client stale.
		// The wire model assumed the client applied this update (the
		// shadow and tile window were committed during prepare); the
		// client's true state is now unknown, so distrust the model.
		mUpdateDrops.Inc()
		c.ws.Reset()
		c.mu.Lock()
		for _, r := range rects {
			c.dirty.Add(r)
		}
		c.mu.Unlock()
		return
	}
	mUpdatesSent.Inc()
	mUpdateBytes.Add(int64(size))
	if c.fedResync {
		c.fedResync = false
		mFedResyncBytes.Add(int64(size))
	}
	// Close the input→damage→update loop: this update is the first to
	// ship since an input event was dispatched, so it (approximately)
	// carries that input's visual consequence.
	if mark := c.inputMark.Swap(0); mark != 0 {
		v := float64(time.Now().UnixNano()-mark) / 1e9
		if tid != 0 {
			mInputToUpdateSec.ObserveExemplar(v, tid)
		} else {
			mInputToUpdateSec.Observe(v)
		}
	}
	if tid != 0 {
		// The flush span completes the interaction (pixels on the wire);
		// clear the mark only now, so a failed send leaves the trace open
		// for the retried update that actually ships the damage.
		trace.Record(tid, trace.StageFlush, sendT0, time.Now().UnixNano())
		c.traceMark.Store(0)
	}
}

var _ rfb.ServerHandler = (*session)(nil)

// KeyEvent implements rfb.ServerHandler: universal input → input queue →
// window system. The read loop only enqueues; dispatchTurn injects.
func (c *session) KeyEvent(ev rfb.KeyEvent) {
	mKeyEvents.Inc()
	now := time.Now().UnixNano()
	tid := c.takeEventTrace(now)
	c.inq.put(inputEvent{enq: now, trace: tid, key: ev})
	c.wakeDispatch()
}

// PointerEvent implements rfb.ServerHandler. An event that changes no
// buttons relative to the previous pointer event on this connection is a
// pure move — the only kind the queue may coalesce under backpressure.
func (c *session) PointerEvent(ev rfb.PointerEvent) {
	mPointerEvents.Inc()
	now := time.Now().UnixNano()
	tid := c.takeEventTrace(now)
	c.inq.put(inputEvent{enq: now, trace: tid, ptr: ev, pointer: true, move: move(c, ev)})
	c.wakeDispatch()
}

func move(c *session, ev rfb.PointerEvent) bool {
	m := ev.Buttons == c.lastPtrMask
	c.lastPtrMask = ev.Buttons
	return m
}

// takeEventTrace consumes the trace context the wire attached to the
// event currently being dispatched (read-loop-synchronous). For a traced
// event it closes the wire span — client transport write to server parse,
// one clock, in-process — and attaches the connection's hub_route span
// under the interaction's id with its true (earlier) timestamps.
func (c *session) takeEventTrace(now int64) uint64 {
	tid, sent := c.conn.TakeTraceContext()
	if tid == 0 {
		return 0
	}
	trace.Record(tid, trace.StageWire, sent, now)
	if c.routeEnd != 0 {
		trace.Record(tid, trace.StageHubRoute, c.routeStart, c.routeEnd)
	}
	return tid
}

func (c *session) wakeDispatch() { c.dispatchTask.Kick() }

// CutText implements rfb.ServerHandler (ignored; appliances do not paste).
func (c *session) CutText(string) {}

// UpdateRequest implements rfb.ServerHandler: park the request for the
// writer and return. The read loop neither blocks on the transport nor
// takes the display widget lock — both the render pump and the request
// state machine run on the writer's turn (processRequest).
func (c *session) UpdateRequest(req rfb.UpdateRequest) {
	c.mu.Lock()
	c.reqs = append(c.reqs, req)
	c.mu.Unlock()
	c.wake()
}

// processRequest runs the request state machine (writer turn).
// Non-incremental requests are answered with the full region; incremental
// requests are answered when damage exists, otherwise parked until damage
// arrives. All replies flow through the writer's coalescing outbox.
func (c *session) processRequest(req rfb.UpdateRequest) {
	if !req.Incremental {
		region := req.Region.Intersect(c.bounds)
		c.mu.Lock()
		// The full-region resend supersedes pending damage inside it;
		// damage outside the requested region stays collectable by a
		// later request instead of being dropped.
		drained := c.drainDirtyLocked(region)
		c.hasPending = false
		if region.Empty() {
			// Every non-incremental request gets exactly one reply, even
			// when the region clips to nothing.
			c.owedEmpty++
			c.mu.Unlock()
			c.recycleDirty(drained)
			c.wake()
			return
		}
		c.mu.Unlock()
		c.recycleDirty(drained) // contents unused: region covers them
		c.enqueue([]gfx.Rect{region})
		return
	}
	c.mu.Lock()
	rects := c.drainDirtyLocked(req.Region)
	if len(rects) == 0 {
		// No damage inside the requested region (pending damage outside
		// it, if any, went back to the dirty set): park the request.
		c.pending = req
		c.hasPending = true
		c.mu.Unlock()
		c.recycleDirty(rects)
		return
	}
	c.mu.Unlock()
	c.enqueue(rects)
	c.recycleDirty(rects)
}

// drainDirtyLocked drains the dirty set for a request covering region:
// parts inside region are returned clipped (in recycled storage), parts
// outside are re-added to the dirty set so a later request still collects
// them. c.mu must be held; hand the storage back via recycleDirty once the
// rectangles are consumed.
func (c *session) drainDirtyLocked(region gfx.Rect) []gfx.Rect {
	taken := c.takeDirtyLocked()
	out := taken[:0]
	var tmp [4]gfx.Rect
	for _, r := range taken {
		in := r.Intersect(region)
		if in != r { // some of r lies outside the requested region
			for _, rest := range r.SubtractInto(tmp[:0], region) {
				c.dirty.Add(rest)
			}
		}
		if !in.Empty() {
			out = append(out, in)
		}
	}
	return out
}

// takeDirtyLocked drains the dirty set into recycled storage (c.mu held).
// Once the returned rectangles are consumed, hand the storage back with
// recycleDirty so the steady-state request path stops allocating.
func (c *session) takeDirtyLocked() []gfx.Rect {
	spare := c.dirtySpare
	c.dirtySpare = nil
	return c.dirty.TakeInto(spare)
}

func (c *session) recycleDirty(rects []gfx.Rect) {
	c.mu.Lock()
	if c.dirtySpare == nil {
		c.dirtySpare = rects
	}
	c.mu.Unlock()
}

// addDirty accumulates fresh damage and satisfies a parked request.
func (c *session) addDirty(rects []gfx.Rect) {
	c.mu.Lock()
	hadDirty := !c.dirty.Empty()
	for _, r := range rects {
		c.dirty.Add(r)
	}
	if !c.hasPending || c.dirty.Empty() {
		coalesced := !c.hasPending && hadDirty && len(rects) > 0
		c.mu.Unlock()
		if coalesced {
			// No request is waiting and damage was already pending: the
			// client is lagging the screen, so these rects merge into
			// the accumulated set and will ship together — coalesced —
			// on the next request. (A single rect landing on a clean
			// session is just normal demand-driven flow and is not
			// counted.)
			mRectsCoalesced.Add(int64(len(rects)))
		}
		return
	}
	out := c.drainDirtyLocked(c.pending.Region)
	if len(out) == 0 {
		// The new damage lies entirely outside the parked request's
		// region: it stays in the dirty set, the request stays parked.
		c.mu.Unlock()
		c.recycleDirty(out)
		return
	}
	c.hasPending = false
	c.mu.Unlock()
	c.enqueue(out)
	c.recycleDirty(out)
}
