package uniserver

import (
	"crypto/rand"
	"encoding/hex"
	"time"

	"uniint/internal/gfx"
	"uniint/internal/metrics"
	"uniint/internal/sched"
	"uniint/internal/trace"
)

// The detach lot is the server half of session resilience: when a proxy's
// link dies, the session's server-side state — accumulated damage,
// undispatched input events, the pointer mask — is parked under its resume
// token instead of being torn down. (An update request it had parked is
// not: a request is owed on the connection it arrived on. Nor is the wire
// model: a resume distrusts the shadow framebuffer, and a full repaint
// overwrites a distrusted shadow before anything reads it, so a parked
// session keeps no pixels.) A reconnecting client that presents the token
// reclaims the parked state and its first request collects an incremental
// resync (only the damage accumulated while detached); a token that never
// returns expires after the park TTL.
// The lot is bounded: at capacity the oldest parked session (of those
// holding no undispatched input, while there are any) is expired to make
// room.
//
// Accounting invariant: session_parked_total + session_migrated_in_total
// == session_resumed_total + session_expired_total +
// session_migrated_out_total + session_parked (gauge) whenever no park,
// claim, or migration is in flight — federation moves a parked entry
// between lots as one migrated-out/migrated-in pair. A dying session
// leaves server_sessions only after it has parked (teardown), so that
// gauge back at its baseline vouches for "no park in flight". Input
// events carried through a park window are counted
// (input_dispatched_total / input_abandoned_total) when their session
// resumes or expires, not at detach time.
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

// takeoverWait bounds a takeover's wait for the live session to park. A
// teardown lands within microseconds of its link closing; the bound is for
// a dispatcher stalled inside a widget callback, which must not hang a
// stranger's handshake. (A variable only for the stalled-teardown test.)
var takeoverWait = 2 * time.Second

// parkedSession is one disconnected session waiting in the lot.
type parkedSession struct {
	token   string
	w, h    int      // session geometry at detach; must still match to resume
	claimed bool     // a resume handshake is in flight (guarded by lotMu)
	claimer *session // whose handshake it is, for takeover

	dirty       *gfx.Damage // damage accumulated before and during detach
	dirtySpare  []gfx.Rect
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
// per-server, so collisions are astronomically unlikely; a failure of the
// system randomness source degrades to a session without resume.
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
// signal, bounded by takeoverWait — for teardown to park it. A token sits
// in exactly one of {live index, lot} from the moment the handshake issues
// it (register and retire each move it under one lotMu hold), so looking
// here first and in the lot second cannot fall between them. A lot entry
// claimed by a handshake still in flight is live too — its client resumed
// and dropped again before the server registered it — and its claimer is
// what gets taken over. Both lookups start here: HasParked (the hub's
// token route) and claimParked (a home-named redial's handshake). On
// timeout the lookup that follows misses: a fresh session, a full repaint.
func (s *Server) takeover(token string) {
	s.lotMu.Lock()
	sess := s.live[token]
	if ps := s.lot[token]; sess == nil && ps != nil {
		sess = ps.claimer
	}
	s.lotMu.Unlock()
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

// unlist ends sess's presence in the live index and signals its waiters.
// Every session calls it exactly once, last thing: after retire (which
// already moved the token to the lot, so the index may by now name the
// session that resumed it — hence the identity check), or when its
// handshake failed before it ever registered.
func (s *Server) unlist(sess *session) {
	s.lotMu.Lock()
	if s.live[sess.token] == sess {
		delete(s.live, sess.token)
	}
	s.lotMu.Unlock()
	close(sess.retired)
}

// claimParked marks the parked session for token as claimed and returns
// it, or nil when the token is unknown, already claimed, expired, or
// parked with a different geometry (the display resized while detached —
// the shadow framebuffer the client kept no longer matches, so the
// resume must fail into a fresh session and full repaint). A token whose
// session is still live is taken over first (takeover).
//
// The entry STAYS in the lot, still accumulating pump damage, until the
// handshake completes and the new session atomically takes its place
// (finishClaim) — or the handshake fails and the claim is released
// (releaseClaim). Nothing is counted resumed here; a claim is not yet a
// resume.
func (s *Server) claimParked(token string, w, h int, by *session) *parkedSession {
	s.takeover(token)
	now := time.Now()
	s.lotMu.Lock()
	ps := s.lot[token]
	if ps == nil || ps.claimed {
		s.lotMu.Unlock()
		return nil
	}
	if now.After(ps.deadline) || ps.w != w || ps.h != h {
		delete(s.lot, token)
		mSessParkedNow.Dec()
		s.lotMu.Unlock()
		s.expire(ps, now)
		return nil
	}
	ps.claimed, ps.claimer = true, by
	s.lotMu.Unlock()
	return ps
}

// releaseClaim undoes a claim whose handshake failed: the session goes
// back to waiting out its TTL (no counters move). Safe when the entry
// was drained underneath the claim (server shutdown).
func (s *Server) releaseClaim(ps *parkedSession) {
	s.lotMu.Lock()
	if s.lot[ps.token] == ps {
		ps.claimed, ps.claimer = false, nil
		// The janitor skips claimed entries (and may have disarmed while
		// this one was the only resident): re-arm it, so a released claim
		// still expires on time.
		s.scheduleSweepLocked(ps.deadline)
	}
	s.lotMu.Unlock()
}

// expire settles the accounting for a parked session that will never be
// claimed. Call without lotMu held.
func (s *Server) expire(ps *parkedSession, now time.Time) {
	mSessExpired.Inc()
	mDetachSeconds.ObserveDuration(now.Sub(ps.parkedAt))
	if len(ps.events) > 0 {
		mInputAbandoned.Add(int64(len(ps.events)))
	}
}

// register installs a freshly handshaked session into the live set and,
// for a resume, atomically swaps the claimed lot entry's state into it.
// It reports false when the server is closing (the caller tears the
// connection down). The whole swap runs under s.pumpMu, so no render
// pump can fire between "entry leaves the lot" and "session receives
// damage" — the window in which rects would otherwise vanish.
func (s *Server) register(sess *session, reclaimed *parkedSession) bool {
	s.pumpMu.Lock()
	defer s.pumpMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		if reclaimed != nil {
			s.releaseClaim(reclaimed) // drainLot settles (or settled) it
		}
		return false
	}
	s.sessions[sess] = struct{}{}
	// Joined under mu, after the closed check: ordered before Close's Wait.
	s.wg.Add(1)
	s.mu.Unlock()
	if reclaimed != nil {
		s.lotMu.Lock()
		if s.lot[reclaimed.token] != reclaimed {
			// Drained underneath the claim (only shutdown does this —
			// and closed above catches that first); bail defensively.
			s.lotMu.Unlock()
			s.mu.Lock()
			delete(s.sessions, sess)
			s.mu.Unlock()
			s.wg.Done()
			return false
		}
		delete(s.lot, reclaimed.token)
		s.live[reclaimed.token] = sess
		mSessParkedNow.Dec()
		s.lotMu.Unlock()
		sess.adopt(reclaimed)
		mSessResumed.Inc()
		mDetachSeconds.ObserveDuration(time.Since(reclaimed.parkedAt))
		// A resume is itself a traceable session-lifecycle interaction:
		// its span covers the whole detach window, under a fresh id.
		if tid := trace.Start(); tid != 0 {
			trace.Record(tid, trace.StageResume,
				reclaimed.parkedAt.UnixNano(), time.Now().UnixNano())
		}
	}
	return true
}

// retire removes a dead connection's session from the live set and
// parks its state in the lot. It reports whether the state was parked
// (false: parking disabled, server closed, or the session never got a
// token — the caller settles the input-event leftovers). events are the
// undispatched input events drained after the dispatcher exited.
//
// Removal and parking are one pumpMu critical section: a pump either
// runs before (offering damage to the still-registered session) or
// after (offering it to the lot entry) — no rect falls between the two
// structures.
func (s *Server) retire(sess *session, events []inputEvent) bool {
	s.pumpMu.Lock()
	defer s.pumpMu.Unlock()
	s.mu.Lock()
	delete(s.sessions, sess)
	closed := s.closed
	s.mu.Unlock()
	if s.parkTTL <= 0 || sess.token == "" || closed {
		return false
	}

	// The outbox holds damage a request already claimed but the writer
	// never shipped (or shipped into a dying transport): fold it back
	// into the dirty set so the resync re-covers it.
	sess.mu.Lock()
	for _, r := range sess.outbox.TakeInto(nil) {
		sess.dirty.Add(r)
	}
	now := time.Now()
	ps := &parkedSession{
		token:       sess.token,
		w:           sess.bounds.W,
		h:           sess.bounds.H,
		dirty:       sess.dirty,
		dirtySpare:  sess.dirtySpare,
		events:      events,
		lastPtrMask: sess.lastPtrMask,
		parkedAt:    now,
		deadline:    now.Add(s.parkTTL),
	}
	sess.dirty = nil // state moved; the session object is dead
	sess.dirtySpare = nil

	s.lotMu.Lock()
	oldest := s.makeRoomLocked()
	s.lot[ps.token] = ps
	// Only now, under the same hold, does the token leave the live index.
	delete(s.live, ps.token)
	s.scheduleSweepLocked(ps.deadline)
	s.lotMu.Unlock()
	sess.mu.Unlock()

	if oldest != nil {
		s.expire(oldest, now)
	}
	mSessParked.Inc()
	mSessParkedNow.Inc()
	return true
}

// evictsBefore orders capacity victims: no undispatched input first, then
// oldest first.
func (ps *parkedSession) evictsBefore(o *parkedSession) bool {
	if a, b := len(ps.events) == 0, len(o.events) == 0; a != b {
		return a
	}
	return ps.parkedAt.Before(o.parkedAt)
}

// makeRoomLocked removes one resident when the lot is at capacity and
// returns it for the caller to expire outside lotMu (nil: there is room, or
// every resident is claimed — mid-handshake, about to leave on its own, and
// evicting it would strand its resume). The victim is the oldest unclaimed
// entry, those holding no undispatched input first: the bound is there to
// cap the lot's size, and should not cost a user's key press while any
// other victim will do. lotMu must be held.
func (s *Server) makeRoomLocked() *parkedSession {
	if len(s.lot) < s.parkCap {
		return nil
	}
	var victim *parkedSession
	for _, e := range s.lot {
		if !e.claimed && (victim == nil || e.evictsBefore(victim)) {
			victim = e
		}
	}
	if victim != nil {
		delete(s.lot, victim.token)
		mSessParkedNow.Dec()
	}
	return victim
}

// adopt seeds a fresh session with reclaimed parked state. It runs before
// the session's writer and dispatcher start.
func (c *session) adopt(ps *parkedSession) {
	c.dirty = ps.dirty
	c.dirtySpare = ps.dirtySpare
	c.lastPtrMask = ps.lastPtrMask
	c.fedResync = ps.migrated
	// The session's fresh wire model starts distrusted: the reconnecting
	// client's tile memory is empty, and which pixels it holds — whether
	// it adopted its old shadow at all — is unknowable here, so CopyRect
	// stays off until a full repaint revalidates the shadow. That repaint
	// overwrites every shadow pixel before any is read, which is why the
	// lot never kept them.
	c.ws.Reset()
	// Traced events that sat out the detach window get a park span —
	// detach to reclaim — under their own id, so the gap between their
	// queue enqueue and eventual dispatch is explained in the export.
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

// scheduleSweepLocked arms the lot janitor for the given deadline if no
// earlier sweep is already scheduled. The janitor is a timer on the shared
// wheel, so a process full of detach lots holds O(1) runtime timers.
// lotMu must be held.
func (s *Server) scheduleSweepLocked(deadline time.Time) {
	d := time.Until(deadline) + time.Millisecond
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if s.lotTimer == nil {
		s.lotTimer = sched.Shared().AfterFunc(d, s.sweepLot)
		s.lotSweepAt = deadline
		return
	}
	if deadline.Before(s.lotSweepAt) {
		s.lotTimer.Reset(d)
		s.lotSweepAt = deadline
	}
}

// sweepLot is the lot janitor: it expires every parked session past its
// deadline and re-arms itself for the earliest deadline still owed.
// Claimed entries are skipped — a resume handshake is mid-flight and will
// remove or release them.
func (s *Server) sweepLot() {
	now := time.Now()
	var expired []*parkedSession
	s.lotMu.Lock()
	var next time.Time
	for tok, ps := range s.lot {
		if ps.claimed {
			continue
		}
		if now.After(ps.deadline) {
			delete(s.lot, tok)
			mSessParkedNow.Dec()
			expired = append(expired, ps)
			continue
		}
		if next.IsZero() || ps.deadline.Before(next) {
			next = ps.deadline
		}
	}
	if next.IsZero() {
		s.lotTimer = nil
	} else {
		s.lotSweepAt = next
		s.lotTimer.Reset(time.Until(next) + time.Millisecond)
	}
	s.lotMu.Unlock()
	for _, ps := range expired {
		s.expire(ps, now)
	}
}

// drainLot expires everything parked (server shutdown). It takes pumpMu
// so it serializes with retire: a retire that read closed == false has
// finished inserting before the drain snapshots the lot, and one that
// runs after the drain reads closed == true and parks nothing — no
// entry or armed janitor timer can leak into a drained lot.
func (s *Server) drainLot() {
	s.pumpMu.Lock()
	defer s.pumpMu.Unlock()
	now := time.Now()
	s.lotMu.Lock()
	if s.lotTimer != nil {
		s.lotTimer.Stop()
		s.lotTimer = nil
	}
	lot := s.lot
	s.lot = nil
	mSessParkedNow.Add(int64(-len(lot)))
	s.lotMu.Unlock()
	for _, ps := range lot {
		s.expire(ps, now)
	}
}

// addParkedDamage offers freshly rendered damage to every parked session.
// Runs under s.pumpMu (from pump), keeping it ordered against park.
func (s *Server) addParkedDamage(rects []gfx.Rect) {
	s.lotMu.Lock()
	for _, ps := range s.lot {
		for _, r := range rects {
			ps.dirty.Add(r)
		}
	}
	s.lotMu.Unlock()
}

// Parked returns the number of sessions currently waiting in the detach
// lot. The hub's idle eviction consults it (via uniint.HubSession) so a
// home with a parked session is not evicted out from under a roaming
// user.
func (s *Server) Parked() int {
	s.lotMu.Lock()
	defer s.lotMu.Unlock()
	return len(s.lot)
}

// HasParked reports whether the lot holds a live (unexpired) session for
// token — the hub's token-routing probe. True means the entry is in the
// lot now: a session still connected under the token is taken over first.
func (s *Server) HasParked(token string) bool {
	s.takeover(token)
	s.lotMu.Lock()
	defer s.lotMu.Unlock()
	ps := s.lot[token]
	return ps != nil && !time.Now().After(ps.deadline)
}
