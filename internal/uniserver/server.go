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

	// mu guards the session table (lot.go), one row per token moved only
	// by transition, and what moves with it: closed, counts, the live
	// rows' sessions (in no order), the janitor; and attached, every
	// session Attach is serving, handshake included, whose links Close
	// closes. wg counts what Close joins: live sessions, Serve's handlers
	// and the janitor's fire.
	mu       sync.Mutex
	table    map[string]*entry
	count    [claimed + 1]int              // rows per state (gone ones unused)
	taken    [claimed + 1][claimed + 1]int // transitions taken, by edge
	liveSess []*session
	attached map[*session]struct{}
	closed   bool
	wg       sync.WaitGroup

	// pumpMu serializes render pumps and guards the render journal every
	// session reads its damage from (journal, jseq: lot.go) and each live
	// session's waiting flag; pumpBuf recycles the rect storage so the
	// damage→render→journal path allocates nothing in steady state.
	pumpMu  sync.Mutex
	pumpBuf []gfx.Rect
	journal *[journalCap]gfx.Rect
	jseq    uint64

	// tiles is the content-addressed tile store every session's wire model
	// shares encoded bodies through: tile installs and the dictionary memo
	// that answers a cold join's bands. Never nil: the server's own, or the
	// one a hub shares across its homes.
	tiles *rfb.TileCache

	// The detach lot's policy (DefaultParkTTL and DefaultParkCapacity,
	// fields only for the lot's tests) and janitor (lot.go); the lot itself
	// is the table's parked and claimed rows.
	parkTTL    time.Duration
	parkCap    int
	lotTimer   *time.Timer // the lot janitor, armed on demand; under mu
	lotSweepAt time.Time
}

// HandshakeTimeout bounds the protocol handshake, so a stalled peer can
// neither park a handler goroutine forever nor pin a claimed detach-lot
// entry past reclaim.
const HandshakeTimeout = 10 * time.Second

// WriteBudget bounds every write a session makes on the shared pool, so a
// peer that stops reading (a sleeping PDA keeps its socket open against a
// zero window) holds a pool worker for one budget instead of for good.
// It runs from when the update's work arrived (armWrite): a write not done
// by then fails and closes the link, the read loop returns, and teardown
// parks the session, whose resume repaints what was lost. A write starts
// with at least half the budget left, less its wait for a worker: 2 s,
// seven times the slowest update write seen across the test suite, its
// race run and the chaos soak (273 ms for 10 KB to a loaded loopback
// client on 2 vCPUs) — unless its link took over half a budget to take
// the last update, when it gets only what that budget has left.
const WriteBudget = 4 * time.Second

// New creates a server for the given display. name is announced to
// clients during the handshake. tiles is a tile store shared with other
// servers (the hub passes one to every home, whose control panels look
// alike); nil gives the server its own, rfb.NewTileCache(0), shared by its
// sessions. Disconnected sessions park under DefaultParkTTL and
// DefaultParkCapacity.
func New(display *toolkit.Display, name string, tiles *rfb.TileCache) *Server {
	if tiles == nil {
		tiles = rfb.NewTileCache(0)
	}
	s := &Server{
		display:  display,
		name:     name,
		table:    make(map[string]*entry),
		attached: make(map[*session]struct{}),
		tiles:    tiles,
		parkTTL:  DefaultParkTTL,
		parkCap:  DefaultParkCapacity,
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
// the detach lot (unless the server is closing). From its first byte to its
// return the connection is one Close closes; a closed server refuses it.
func (s *Server) Attach(conn net.Conn) error {
	w, h := s.display.Size()
	// A hub-routed connection carries its routing span (preamble read +
	// home resolution); remember it so every traced interaction arriving
	// on this connection can attach the hub_route stage.
	routeStart, routeEnd, _ := trace.RouteSpan(conn)
	// The session exists before the handshake so the token the handshake
	// issues is keyed (handshaking) the moment a client can know it.
	sess := &session{
		srv:        s,
		link:       conn,
		retired:    make(chan struct{}),
		routeStart: routeStart,
		routeEnd:   routeEnd,
		bounds:     gfx.R(0, 0, w, h),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return errClosed
	}
	s.attached[sess] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.attached, sess)
		s.mu.Unlock()
	}()
	from := handshaking // the row register moves to live: claimed for a resume
	ex := func(presented string) (string, bool) {
		if presented != "" && s.claimParked(presented, w, h, sess) {
			sess.token, from = presented, claimed
			return presented, true
		}
		tok := newSessionToken()
		s.mu.Lock()
		keyed := tok != "" && s.transition(tok, gone, handshaking, sess, nil) != nil
		s.mu.Unlock()
		if !keyed {
			conn.Close() // no row, no session: fail the handshake's ServerInit write
			return "", false
		}
		sess.token = tok
		return tok, false
	}
	// The handshake is bounded: a peer that stalls mid-handshake (after
	// presenting a resume token, say) must fail within the deadline so
	// its claim releases and the parked session stays reclaimable —
	// unbounded, a half-open link would hold the claim forever (the lot
	// janitor skips claimed entries). The bound is a runtime timer, not a
	// conn deadline, so transports without one work too; a fired bound is
	// waited out.
	fired := make(chan struct{})
	hsTimer := time.AfterFunc(HandshakeTimeout, func() { defer close(fired); conn.Close() })
	rc, err := rfb.NewEdgeServerConn(conn, w, h, s.name, ex)
	if !hsTimer.Stop() {
		<-fired
	}
	if err != nil {
		s.refuse(sess, from)
		return err
	}
	sess.conn = rc
	sess.cur.dirty = gfx.NewDamage(sess.bounds, 16)
	sess.outbox = gfx.NewDamage(sess.bounds, 16)
	sess.ws = rfb.NewWireState(s.tiles, w, h) // synced to no frame, also on a resume
	// The tasks exist before the session is visible to the pump, so a
	// damage kick arriving mid-register always has a target.
	sess.writeTask = sched.SharedPool().NewTask(sess.writerTurn)
	sess.dispatchTask = sched.SharedPool().NewTask(sess.dispatchTurn)
	// register moves the session to live — for a resume, with the claimed
	// lot entry's state. It also joins the session to the server's wait
	// group, so Close blocks until teardown has fully retired it.
	if !s.register(sess, from) {
		rc.Close()
		s.refuse(sess, from)
		return errClosed
	}
	if from == claimed {
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
// that moves the session out of live and parks the remaining state for a
// reconnect (or settles the accounting when the server is closing).
// Damage rendered meanwhile waits in the journal past the session's
// cursor, which carries into the lot.
func (c *session) teardown() {
	c.conn.Close()
	c.writeTask.Stop()
	c.dispatchTask.Stop()
	c.srv.retire(c, c.inq.take())
	close(c.retired)
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
		// documented cost; joined by Server.Close.
		go func() {
			defer s.wg.Done()
			_ = s.Attach(conn)
		}()
	}
}

// errClosed is Attach's error on a closed server.
var errClosed = errors.New("uniserver: server closed")

// Close disconnects every connection, mid-handshake too, and joins
// everything wg counts.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	for sess := range s.attached {
		sess.link.Close()
	}
	s.mu.Unlock()
	s.expireLot()
	s.wg.Wait()
}

// liveSessions snapshots the live rows' sessions.
func (s *Server) liveSessions() []*session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*session(nil), s.liveSess...)
}

// Sessions returns the number of connected proxies.
func (s *Server) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count[live]
}

// pump runs after the display accumulated new damage: render once and
// offer the fresh rectangles. Pumps are serialized so the recycled rect
// buffer is never handed out twice concurrently.
func (s *Server) pump() {
	s.pumpMu.Lock()
	defer s.pumpMu.Unlock()
	s.render()
}

// render renders the display's pending damage and offers it. s.pumpMu must
// be held.
func (s *Server) render() {
	rects, tid := s.display.RenderTraceInto(s.pumpBuf)
	s.pumpBuf = rects
	s.offer(rects, tid)
}

// offer journals one render's rects, traced as tid, and kicks every live
// session whose writer has an incremental request parked: the writer reads
// the rects from the journal. A live cursor journalCap/2 behind is caught
// up in place, so a client that lags a burst of renders gets the damage
// they took, never the full bounds the ring's lapping would cost. s.pumpMu
// must be held.
func (s *Server) offer(rects []gfx.Rect, tid uint64) {
	if len(rects) == 0 {
		return
	}
	s.record(rects)
	s.mu.Lock()
	for _, sess := range s.liveSess {
		if tid != 0 {
			// This render carries a traced interaction's damage: mark the
			// session so the flush that ships it closes the trace. First
			// trace wins until a flush clears the mark (inputMark pattern).
			sess.traceMark.CompareAndSwap(0, tid)
		}
		if s.jseq-sess.cur.seq >= journalCap/2 {
			if onto := s.catchUp(&sess.cur); !sess.waiting {
				mRectsCoalesced.Add(int64(onto)) // as answer counts a lagging client's
			}
		}
		if sess.waiting {
			sess.wake()
		}
	}
	s.mu.Unlock()
}

// session is one proxy connection: its place in the server's render
// journal plus the demand-driven update state machine of the protocol.
//
// Updates are transmitted by the session's writer task — turns on the
// process worker pool, never the read loop. This keeps the read loop
// (and the GUI goroutines firing damage hooks) from ever blocking on a
// slow transport — without it, a synchronous in-process pipe can form a
// cycle: the read loop blocks writing an update, the peer blocks writing
// a request, and neither side drains the other.
//
// A writer turn answers every request queued since the last one into one
// outbox damage set, so while a write is in flight on a slow transport the
// requests arriving behind it merge and the next turn ships the coalesced
// region as ONE FramebufferUpdate. Backpressure therefore reduces update
// count instead of growing a queue, and pixels are encoded at most once
// per flush no matter how many damage events landed on them.
type session struct {
	srv     *Server
	conn    *rfb.ServerConn
	token   string // resume token; keys the session's table row
	bounds  gfx.Rect
	liveIdx int // index in srv.liveSess while live (srv.mu)

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
	// inputMark carries the oldest undispatched input's queueing time into
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

	// reqs queues protocol update requests for the writer, so the read
	// loop never takes the display widget lock: a dispatch stalled inside
	// a widget callback cannot block framebuffer-request reads. mu guards
	// reqs and nothing else; the writer ping-pongs it with reqSpare.
	mu       sync.Mutex
	reqs     []rfb.UpdateRequest
	reqSpare []rfb.UpdateRequest

	// The rest is the writer turn's: cur is the damage read from the
	// journal and not yet shipped (under srv.pumpMu, where the pump also
	// catches a lagging cursor up); pending is the incremental request
	// parked until damage lands in its region, and waiting (also under
	// srv.pumpMu, where the pump reads it) says one is; outbox gathers one
	// turn's reply, so it is empty whenever the task is stopped.
	cur     cursor
	pending rfb.UpdateRequest
	waiting bool
	outbox  *gfx.Damage

	// fedResync marks a session resumed from a MIGRATED lot entry: the
	// first update it ships is the cross-node resync, counted into
	// fed_resync_bytes_total. Writer-turn-only after adopt seeds it.
	fedResync bool

	// dueAt is when the writer's pending work arrived, stamped by the first
	// wake after a turn took it; writeBy is the link's write deadline
	// (armWrite, writer-turn-only). Both UnixNano. slowLink marks a last
	// update that took the link over half a budget (writer-turn-only).
	dueAt    atomic.Int64
	writeBy  int64
	slowLink bool

	// ws is the wire tier's model of the client (the frame it last
	// received in full + tile window); writer-turn-only. Unlike turn
	// scratch it is client STATE, not scratch — but not state the lot
	// keeps: a resumed session starts a fresh one, synced to no frame, and
	// it is Reset whenever the model can no longer be trusted (encode
	// error, failed send). Drain and encode scratch is NOT pinned here:
	// writer turns check a turnScratch out of the central pool, so that
	// memory scales with concurrent turns, not sessions.
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

func (c *session) wake() {
	if c.dueAt.Load() == 0 {
		c.dueAt.CompareAndSwap(0, time.Now().UnixNano())
	}
	c.writeTask.Kick()
}

// writerTurn is the writer task's turn: it owns all update transmission
// for the session. One turn takes the queued protocol requests, answers
// them and any parked one from the session's damage (answer), encodes
// under the display lock with pooled scratch, and ships one
// FramebufferUpdate plus the empty replies owed. Work arriving mid-turn
// kicks the task again, so the pool re-queues it — nothing is lost and
// nothing busy-waits.
func (c *session) writerTurn() {
	due := c.dueAt.Swap(0)
	ts := turnScratchPool.Get().(*turnScratch)
	c.mu.Lock()
	reqs := c.reqs
	c.reqs = c.reqSpare[:0]
	c.mu.Unlock()
	empties := c.answer(reqs)
	c.reqSpare = reqs[:0]
	rects := c.outbox.TakeInto(ts.rects[:0])
	if empties > 0 || len(rects) > 0 {
		c.armWrite(due)
		t0 := time.Now()
		for i := 0; i < empties; i++ {
			c.sent(c.conn.SendEmptyUpdate())
		}
		took := time.Since(t0)
		if len(rects) > 0 {
			took += c.flush(rects, ts)
		}
		c.slowLink = took > WriteBudget/2
	}
	ts.rects = rects
	turnScratchPool.Put(ts)
}

// answer runs the request state machine for one writer turn under
// srv.pumpMu and returns the empty replies owed. With requests queued it
// first renders pending damage, on the writer's time. It catches the
// cursor up, then answers the parked request and reqs, in arrival order,
// into the outbox. A non-incremental request gets its whole region (which
// supersedes the damage inside it and any parked request), or one empty
// reply when the region clips to nothing; an incremental one gets the
// damage inside its region, or parks. Damage outside a region stays.
func (c *session) answer(reqs []rfb.UpdateRequest) (empties int) {
	s := c.srv
	s.pumpMu.Lock()
	defer s.pumpMu.Unlock()
	parked := c.waiting
	c.waiting = false // answered or parked again below: the render need not kick this writer
	if len(reqs) > 0 {
		s.render()
	}
	onto := s.catchUp(&c.cur)
	if parked {
		c.incremental(c.pending)
	} else if onto > 0 {
		// No request was waiting, so the client lags the screen: rects
		// caught up onto damage already held merge with it and ship
		// together — coalesced — on a later reply.
		mRectsCoalesced.Add(int64(onto))
	}
	for _, req := range reqs {
		if req.Incremental {
			c.incremental(req)
			continue
		}
		region := req.Region.Intersect(c.bounds)
		c.cur.take(region) // superseded by the region's resend
		c.waiting = false
		if region.Empty() {
			empties++ // every non-incremental request gets exactly one reply
		} else {
			c.gather(region)
		}
	}
	return empties
}

// incremental answers an incremental request with the damage inside its
// region, or parks it (writer turn, srv.pumpMu held).
func (c *session) incremental(req rfb.UpdateRequest) {
	rects := c.cur.take(req.Region)
	if len(rects) == 0 {
		c.pending, c.waiting = req, true
	}
	c.gather(rects...)
}

// gather adds rects to this turn's reply. Rects landing on a reply that
// already holds some coalesce with it — the backpressure path.
func (c *session) gather(rects ...gfx.Rect) {
	coalescing := !c.outbox.Empty()
	for _, r := range rects {
		c.outbox.Add(r)
	}
	if coalescing && len(rects) > 0 {
		mRectsCoalesced.Add(int64(len(rects)))
	}
}

// flush encodes the coalesced rectangles (adaptive per-rect encoding on
// pooled scratch) and transmits them as one FramebufferUpdate. It returns
// how long the send took: a stalled widget must not mark a fast link slow.
func (c *session) flush(rects []gfx.Rect, ts *turnScratch) time.Duration {
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
		sendT0 := time.Now()
		c.sent(c.conn.SendEmptyUpdate())
		return time.Since(sendT0)
	}
	if err != nil {
		return 0 // encoding failure: drop the update, connection stays up
	}
	size := prep.Size()
	sendT0 := time.Now()
	if !c.sent(c.conn.SendPrepared(prep)) {
		// The pixels were taken from the session's damage but never
		// reached the client — put them back, so the state that parks in
		// the detach lot is complete and the resync after a resume
		// re-covers them instead of leaving the client stale. The wire
		// model assumed the client applied this update (the synced frame
		// and tile window were committed during prepare); the client's
		// true state is now unknown, so distrust the model.
		c.ws.Reset()
		c.srv.pumpMu.Lock()
		for _, r := range rects {
			c.cur.dirty.Add(r)
		}
		c.srv.pumpMu.Unlock()
		return time.Since(sendT0)
	}
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
		trace.Record(tid, trace.StageFlush, sendT0.UnixNano(), time.Now().UnixNano())
		c.traceMark.Store(0)
	}
	return time.Since(sendT0)
}

// armWrite bounds this turn's writes to WriteBudget from due, when their
// work arrived (now when unstamped), so the budget also covers a turn
// queued behind stalled writers. The deadline is re-armed only once less
// than half the budget is left, and not for work arriving inside the
// budget of an update the link took slowly: a peer whose socket takes each
// update just before its deadline and asks again at once would otherwise
// never park, and would hold a worker for most of every budget.
func (c *session) armWrite(due int64) {
	if due == 0 {
		due = time.Now().UnixNano()
	}
	if c.slowLink && due < c.writeBy {
		return
	}
	if c.writeBy-due < int64(WriteBudget/2) {
		c.writeBy = due + int64(WriteBudget)
		_ = c.link.SetWriteDeadline(time.Unix(0, c.writeBy)) // a transport without deadlines keeps unbounded writes
	}
}

// sent counts one update's outcome and reports whether it reached the
// transport. A failed write may have stopped mid-message, so it closes
// the link: the read loop returns and teardown parks the session.
func (c *session) sent(err error) bool {
	if err != nil {
		mUpdateDrops.Inc()
		c.link.Close()
		return false
	}
	mUpdatesSent.Inc()
	return true
}

var _ rfb.ServerHandler = (*session)(nil)

// KeyEvent implements rfb.ServerHandler: universal input → input queue →
// window system. The read loop only queues; dispatchTurn injects.
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

// UpdateRequest implements rfb.ServerHandler: queue the request for the
// writer and return. The read loop neither blocks on the transport nor
// takes the display widget lock — both the render pump and the request
// state machine run on the writer's turn (answer).
func (c *session) UpdateRequest(req rfb.UpdateRequest) {
	c.mu.Lock()
	c.reqs = append(c.reqs, req)
	c.mu.Unlock()
	c.wake()
}
