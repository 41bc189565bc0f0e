package uniserver

import (
	"crypto/rand"
	"encoding/hex"
	"time"

	"uniint/internal/gfx"
	"uniint/internal/metrics"
	"uniint/internal/trace"
)

// The detach lot is the server half of session resilience: when a proxy's
// link dies, the session's server-side state — accumulated damage,
// undispatched input events, the pointer mask — is parked under its resume
// token instead of being torn down. (An update request it had parked is
// not: a request is owed on the connection it arrived on. Nor is the wire
// model: a resumed session starts a fresh one, synced to no frame, which
// ships no CopyRect before a full repaint, so a parked session keeps no
// pixels.) A reconnecting client that presents the token reclaims the
// parked state and its first request collects an incremental resync (only
// the damage accumulated while detached); a token that never returns
// expires after the park TTL.
// Every session, live or parked, learns of damage one way: from the
// server's journal, the ring of the last journalCap rectangles rendered.
// Its cursor holds the damage read and not yet shipped and a position in
// the journal; a live session's writer turn, or ExportParked for a parked
// row, replays the journal from that position in render order, or marks
// the whole frame once the ring has moved more than journalCap rects past
// it. Only a parked row gets that far: the pump replays a live cursor in
// place once it is journalCap/2 behind. Parking and resuming move the
// cursor, so a row in the lot costs the pump nothing.
// The lot is bounded: at capacity the oldest parked session (of those
// holding no undispatched input, while there are any) is expired to make
// room. The lot is the parked and claimed rows of the session table.
//
// Accounting invariant: session_parked_total + session_migrated_in_total
// == session_resumed_total + session_expired_total +
// session_migrated_out_total + session_parked (gauge) whenever no park,
// claim, or migration is in flight — federation moves a parked entry
// between lots as one migrated-out/migrated-in pair. transition is the one
// place these counters, session_parked and server_sessions move, in the
// hold of the state change they count. On a teardown server_sessions
// moves last, after any capacity eviction and the park counters; as a
// snapshot samples gauges before counters, a scrape that reads
// server_sessions back at its baseline reads the identity balanced. Input
// carried through a park window is counted dispatched or abandoned when
// its session resumes or expires, not at detach time.
var (
	mSessParked     = metrics.Default().Counter("session_parked_total")
	mSessResumed    = metrics.Default().Counter("session_resumed_total")
	mSessResumeMiss = metrics.Default().Counter("session_resume_miss_total")
	mSessExpired    = metrics.Default().Counter("session_expired_total")
	mSessTakeover   = metrics.Default().Counter("session_takeover_total")
	mSessParkedNow  = metrics.Default().Gauge("session_parked")
	mDetachSeconds  = metrics.Default().Histogram("session_detach_seconds", metrics.DurationBuckets())
)

// Default detach-lot policy: how long a disconnected session waits for
// its owner to return, and how many may wait per server. Both are
// per-server (per-home under the hub), so a hub hosting M homes parks at
// most M×DefaultParkCapacity sessions.
const (
	DefaultParkTTL      = 45 * time.Second
	DefaultParkCapacity = 64
)

// journalCap is how many rendered rects the journal keeps: a parked
// cursor that falls further behind resyncs with full bounds, which ships
// as memoised bands. The pump keeps live cursors within journalCap/2.
const journalCap = 256

// takeoverWait bounds a takeover's wait for the live session to park. A
// teardown lands within microseconds of its link closing; the bound is for
// a dispatcher stalled inside a widget callback, which must not hang a
// stranger's handshake. (A variable only for the stalled-teardown test.)
var takeoverWait = 2 * time.Second

// state is where a token's session is in its life: the session table
// holds one row per token handshaking, live, parked or claimed, and a
// token with no row is gone. expired and exported are gone too, named for
// the count the departure settles.
type state uint8

const (
	gone        state = iota
	expired           // by TTL, capacity, geometry or shutdown
	exported          // to another server's lot
	handshaking       // the handshake issued the token; not yet served
	live              // served; its writer reads the journal
	parked            // in the lot (this and above), waiting for its owner
	claimed           // parked, with a resume handshake in flight
)

// edge is one change of state.
type edge struct{ from, to state }

// lifecycle is every legal edge; transition panics on any other.
var lifecycle = map[edge]bool{
	{gone, handshaking}: true, // a fresh handshake keys its token
	{handshaking, gone}: true, // ... and fails
	{handshaking, live}: true, // ... and registers
	{live, parked}:      true, // teardown
	{live, gone}:        true, // teardown on a closing server
	{parked, claimed}:   true, // a resume handshake claims
	{claimed, parked}:   true, // ... and fails
	{claimed, live}:     true, // ... and registers: resumed
	{claimed, expired}:  true, // ... on a closing server
	{parked, expired}:   true, // TTL, capacity, geometry, shutdown
	{parked, exported}:  true, // ExportParked
	{gone, parked}:      true, // ImportParked
}

// entry is one token's row: sess is the session while handshaking or live
// and the claimer while claimed; ps is the parked state in the lot.
type entry struct {
	state state
	sess  *session
	ps    *parkedSession
}

// transition moves tok from state from to state to and, in the same hold,
// settles that edge's counters and gauges. It returns the row, or nil —
// nothing moved — when tok is not in from, or when a closing server would
// gain a live or parked session. sess is the session the row names after
// the change (nil when none). An edge into the lot from outside it carries
// the parked state ps and first makes room at capacity. s.mu must be held.
func (s *Server) transition(tok string, from, to state, sess *session, ps *parkedSession) *entry {
	if !lifecycle[edge{from, to}] {
		panic("uniserver: illegal session transition")
	}
	e := s.table[tok]
	switch {
	case from == gone && e == nil:
		e = &entry{}
	case e == nil || e.state != from:
		return nil
	}
	if s.closed && (to == live || to == parked) {
		return nil
	}
	if to == parked && from != claimed {
		s.makeRoomLocked()
	}
	s.taken[from][to]++
	s.count[from]--
	s.count[to]++
	if from == live {
		s.unlist(e.sess)
	}
	if to == live {
		sess.liveIdx = len(s.liveSess)
		s.liveSess = append(s.liveSess, sess)
	}
	e.state, e.sess = to, sess
	if ps != nil {
		e.ps = ps
	}
	if to <= exported {
		delete(s.table, tok)
	} else {
		s.table[tok] = e
	}

	switch {
	case to == live:
		if from == claimed {
			mSessResumed.Inc()
			mSessParkedNow.Dec()
			mDetachSeconds.ObserveDuration(time.Since(e.ps.parkedAt))
		}
		mSessions.Inc()
	case from == live:
		if to == parked {
			mSessParked.Inc()
			mSessParkedNow.Inc()
		}
		mSessions.Dec() // last: see the accounting invariant
	case from == gone && to == parked:
		mSessMigratedIn.Inc()
		mSessParkedNow.Inc()
	case to == expired:
		mSessExpired.Inc()
		mSessParkedNow.Dec()
		mDetachSeconds.ObserveDuration(time.Since(e.ps.parkedAt))
		if n := len(e.ps.events); n > 0 {
			mInputAbandoned.Add(int64(n))
		}
	case to == exported:
		mSessMigratedOut.Inc()
		mSessParkedNow.Dec()
	}
	if to == parked {
		s.scheduleSweepLocked(e.ps.deadline)
	}
	return e
}

// unlist drops a session leaving live from s.liveSess. s.mu must be held.
func (s *Server) unlist(sess *session) {
	last := len(s.liveSess) - 1
	moved := s.liveSess[last]
	s.liveSess[sess.liveIdx], moved.liveIdx = moved, sess.liveIdx
	s.liveSess[last] = nil
	s.liveSess = s.liveSess[:last]
}

// parkedSession is one disconnected session waiting in the lot.
type parkedSession struct {
	w, h int // session geometry at detach; must still match to resume

	cur         cursor       // the session's damage and journal position
	events      []inputEvent // undispatched input at detach, replayed on resume
	lastPtrMask uint8

	// migrated marks an entry installed by ImportParked — its resume's
	// first shipped update is the federation resync, counted into
	// fed_resync_bytes_total.
	migrated bool

	parkedAt time.Time
	deadline time.Time
}

// newSessionToken issues an opaque 96-bit resume token. Token space is
// per-server, so collisions are astronomically unlikely. A failure of the
// system randomness source returns "", which keys no table row: Attach
// refuses that handshake like any failed one (and a token already held).
func newSessionToken() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		return ""
	}
	return hex.EncodeToString(b[:])
}

// takeover makes a presented token's session claimable when it is still
// live: a client that redials before this server has noticed its old link
// die (half-open TCP, or simply a fast client) names a session that has
// not parked yet. Whoever presents the token owns the session, so the
// stale link is closed and the caller waits — on the session's own retired
// signal, bounded by takeoverWait — for teardown to park it. The row names
// that session from the handshake on; a claimed row names its claimer (a
// client that resumed and dropped again before registering), which is
// taken over the same way. Both lookups start here: HasParked (the hub's
// token route) and claimParked (a home-named redial's handshake). On
// timeout the lookup that follows misses: a fresh session, a full repaint.
func (s *Server) takeover(token string) {
	var sess *session
	s.mu.Lock()
	if e := s.table[token]; e != nil {
		sess = e.sess
	}
	s.mu.Unlock()
	if sess == nil {
		return
	}
	sess.link.Close()
	t := time.NewTimer(takeoverWait)
	defer t.Stop()
	select {
	case <-sess.retired:
		mSessTakeover.Inc()
	case <-t.C:
	}
}

// claimParked claims the parked session for token on behalf of by's
// handshake (parked → claimed). It reports false, counted as a resume
// miss, when the token is unknown, already claimed, expired, or parked with
// a different geometry (the display resized while detached: the client's
// framebuffer no longer matches, so it joins fresh with a full repaint). A
// token whose session is still live is taken over first. A claim is not
// yet a resume: register moves the row to live, or refuse puts it back.
func (s *Server) claimParked(token string, w, h int, by *session) bool {
	s.takeover(token)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.table[token]; e != nil && e.state == parked &&
		(time.Now().After(e.ps.deadline) || e.ps.w != w || e.ps.h != h) {
		s.transition(token, parked, expired, nil, nil)
	}
	if s.transition(token, parked, claimed, by, nil) != nil {
		return true
	}
	mSessResumeMiss.Inc()
	return false
}

// refuse ends a session that will not be served — its handshake failed,
// or the server closed under it — and signals its waiters. A fresh token
// is gone again; a claimed session goes back to waiting out its TTL, or
// expires when the server is closing (a claim already drained moves
// nothing).
func (s *Server) refuse(sess *session, from state) {
	s.mu.Lock()
	if from == handshaking {
		s.transition(sess.token, handshaking, gone, nil, nil)
	} else if s.transition(sess.token, claimed, parked, nil, nil) == nil {
		s.transition(sess.token, claimed, expired, nil, nil)
	}
	s.mu.Unlock()
	close(sess.retired)
}

// register moves a freshly handshaked session to live and, for a resume,
// hands the claimed lot entry's state to it. It reports false when the
// server is closing. A fresh session reads the journal from here on.
func (s *Server) register(sess *session, from state) bool {
	if from == handshaking {
		s.pumpMu.Lock()
		s.stamp(&sess.cur)
		s.pumpMu.Unlock()
	}
	s.mu.Lock()
	e := s.transition(sess.token, from, live, sess, nil)
	if e == nil {
		s.mu.Unlock()
		return false
	}
	// Joined under mu, before Close can set closed: ordered before its Wait.
	s.wg.Add(1)
	ps := e.ps
	e.ps = nil
	if ps != nil {
		sess.adopt(ps)
	}
	s.mu.Unlock()
	if ps != nil {
		// A resume is itself a traceable session-lifecycle interaction:
		// its span covers the whole detach window, under a fresh id.
		if tid := trace.Start(); tid != 0 {
			trace.Record(tid, trace.StageResume,
				ps.parkedAt.UnixNano(), time.Now().UnixNano())
		}
	}
	return true
}

// retire moves a dead connection's session out of live: it parks its
// cursor, events (the input left undispatched) and pointer mask in the lot
// or, the server closing, ends it with that input abandoned. The writer
// task is stopped, so the cursor is whole: what it has not read waits in
// the journal.
func (s *Server) retire(sess *session, events []inputEvent) {
	now := time.Now()
	ps := &parkedSession{
		w:           sess.bounds.W,
		h:           sess.bounds.H,
		events:      events,
		lastPtrMask: sess.lastPtrMask,
		parkedAt:    now,
		deadline:    now.Add(s.parkTTL),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ps.cur, sess.cur = sess.cur, cursor{} // state moved; the session object is dead
	if s.transition(sess.token, live, parked, nil, ps) == nil {
		if len(events) > 0 {
			mInputAbandoned.Add(int64(len(events)))
		}
		s.transition(sess.token, live, gone, nil, nil)
	}
}

// cursor is one session's read of the journal: the damage it has read and
// not yet shipped, storage recycled through take, and the journal position
// it has read up to. A live session's writer turn owns it; parking and
// resuming move it.
type cursor struct {
	dirty *gfx.Damage
	spare []gfx.Rect
	seq   uint64
}

// take drains the damage inside region, clipped to it, into recycled
// storage valid until the next take; damage outside region stays.
func (c *cursor) take(region gfx.Rect) []gfx.Rect {
	taken := c.dirty.TakeInto(c.spare)
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
	c.spare = out
	return out
}

// stamp gives c the journal's present position, making the journal on the
// first stamp. s.pumpMu must be held.
func (s *Server) stamp(c *cursor) {
	if s.journal == nil {
		s.journal = new([journalCap]gfx.Rect)
	}
	c.seq = s.jseq
}

// record appends a render's rects to the journal once a cursor has been
// stamped. s.pumpMu must be held.
func (s *Server) record(rects []gfx.Rect) {
	if s.journal == nil {
		return
	}
	for _, r := range rects {
		s.journal[s.jseq%journalCap] = r
		s.jseq++
	}
}

// catchUp adds to c.dirty the journal's rects since its position, in
// render order, so the damage is the set that took each render in place.
// A cursor more than journalCap rects behind takes its full bounds. It
// returns how many of the rects landed on damage already held: all of
// them, or all but the first when none was. s.pumpMu must be held.
func (s *Server) catchUp(c *cursor) (onto int) {
	n := s.jseq - c.seq
	if onto = int(n); onto > 0 && c.dirty.Empty() {
		onto--
	}
	if n > journalCap {
		c.dirty.AddAll()
	} else {
		for i := c.seq; i < s.jseq; i++ {
			c.dirty.Add(s.journal[i%journalCap])
		}
	}
	c.seq = s.jseq
	return onto
}

// evictsBefore orders capacity victims: no undispatched input first, then
// oldest first.
func (ps *parkedSession) evictsBefore(o *parkedSession) bool {
	if a, b := len(ps.events) == 0, len(o.events) == 0; a != b {
		return a
	}
	return ps.parkedAt.Before(o.parkedAt)
}

// makeRoomLocked expires one resident when the lot is at capacity (none
// when there is room, or when every resident is claimed — mid-handshake,
// about to leave on its own, and evicting it would strand its resume). The
// victim is the oldest parked entry, those holding no undispatched input
// first: the bound is there to cap the lot's size, and should not cost a
// user's key press while any other victim will do. s.mu must be held.
func (s *Server) makeRoomLocked() {
	if s.count[parked]+s.count[claimed] < s.parkCap {
		return
	}
	var victim string
	var vps *parkedSession
	for tok, e := range s.table {
		if e.state == parked && (vps == nil || e.ps.evictsBefore(vps)) {
			victim, vps = tok, e.ps
		}
	}
	if vps != nil {
		s.transition(victim, parked, expired, nil, nil)
	}
}

// adopt seeds a fresh session with reclaimed parked state, its cursor
// first. It runs before the session's writer and dispatcher start.
func (c *session) adopt(ps *parkedSession) {
	c.cur = ps.cur
	c.lastPtrMask = ps.lastPtrMask
	c.fedResync = ps.migrated
	// Traced events that sat out the detach window get a park span —
	// detach to reclaim — under their own id, so the gap between their
	// queueing and eventual dispatch is explained in the export.
	if trace.Enabled() {
		p0, now := ps.parkedAt.UnixNano(), time.Now().UnixNano()
		for i := range ps.events {
			if t := ps.events[i].trace; t != 0 {
				trace.Record(t, trace.StagePark, p0, now)
			}
		}
	}
	c.inq.preload(ps.events)
}

// scheduleSweepLocked arms the lot janitor for deadline unless an earlier
// sweep is due. s.mu must be held: the janitor reads lotTimer under it. A
// fire that has begun re-arms for the earliest deadline, this one too.
func (s *Server) scheduleSweepLocked(deadline time.Time) {
	d := max(time.Until(deadline)+time.Millisecond, time.Millisecond)
	switch {
	case s.lotTimer == nil:
		s.wg.Add(1)
		s.lotTimer = time.AfterFunc(d, s.sweepLot)
	case !deadline.Before(s.lotSweepAt) || !s.lotTimer.Stop():
		return
	default:
		s.lotTimer.Reset(d)
	}
	s.lotSweepAt = deadline
}

// sweepLot is the lot janitor: it expires every parked session past its
// deadline and re-arms itself for the earliest deadline still owed.
// Claimed entries are skipped — a resume handshake is mid-flight and will
// move them on (refuse re-arms the janitor if it puts one back).
func (s *Server) sweepLot() {
	defer s.wg.Done()
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	var next time.Time
	for tok, e := range s.table {
		if e.state != parked {
			continue
		}
		if now.After(e.ps.deadline) {
			s.transition(tok, parked, expired, nil, nil)
			continue
		}
		if next.IsZero() || e.ps.deadline.Before(next) {
			next = e.ps.deadline
		}
	}
	if next.IsZero() {
		s.lotTimer = nil
	} else {
		s.lotSweepAt = next
		s.wg.Add(1)
		s.lotTimer.Reset(time.Until(next) + time.Millisecond)
	}
}

// expireLot expires everything parked or claimed (server shutdown). Close
// set closed first, so nothing enters the lot after the drain: a retire
// ends its session instead, and a claim whose handshake is still in flight
// finds its row gone and moves nothing.
func (s *Server) expireLot() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lotTimer != nil && s.lotTimer.Stop() {
		s.wg.Done()
	}
	s.lotTimer = nil
	for tok, e := range s.table {
		if e.state >= parked {
			s.transition(tok, e.state, expired, nil, nil)
		}
	}
}

// Parked returns the number of sessions currently waiting in the detach
// lot. The hub's idle eviction consults it (via uniint.HubSession) so a
// home with a parked session is not evicted out from under a roaming
// user.
func (s *Server) Parked() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count[parked] + s.count[claimed]
}

// HasParked reports whether the lot holds a live (unexpired) session for
// token — the hub's token-routing probe. True means the entry is in the
// lot now: a session still connected under the token is taken over first.
func (s *Server) HasParked(token string) bool {
	s.takeover(token)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.table[token]
	return e != nil && e.state >= parked && !time.Now().After(e.ps.deadline)
}
