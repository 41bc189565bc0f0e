package uniserver

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uniint/internal/gfx"
	"uniint/internal/leakcheck"
	"uniint/internal/metrics"
	"uniint/internal/rfb"
	"uniint/internal/toolkit"
)

// rectRecorder captures the rectangles of every update.
type rectRecorder struct {
	mu      sync.Mutex
	updates int
	rects   []gfx.Rect
}

func (r *rectRecorder) Updated(rects []gfx.Rect) {
	r.mu.Lock()
	r.updates++
	r.rects = append(r.rects, rects...)
	r.mu.Unlock()
}
func (r *rectRecorder) Bell()          {}
func (r *rectRecorder) CutText(string) {}

func (r *rectRecorder) snapshot() (int, []gfx.Rect) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.updates, append([]gfx.Rect(nil), r.rects...)
}

// lotHarness is a server whose clients can disconnect and return.
type lotHarness struct {
	t       *testing.T
	display *toolkit.Display
	srv     *Server
}

func newLotHarness(t *testing.T) *lotHarness {
	t.Helper()
	h := &lotHarness{t: t, display: toolkit.NewDisplay(160, 120)}
	h.srv = New(h.display, "lot test", nil)
	t.Cleanup(h.srv.Close)
	return h
}

// connect dials the server continuing prev's session (nil: a fresh one),
// runs the read loop into a fresh recorder, and returns the client.
func (h *lotHarness) connect(prev *rfb.ClientConn) (*rfb.ClientConn, *rectRecorder) {
	h.t.Helper()
	sc, cc := net.Pipe()
	go h.srv.Attach(sc)
	client, err := rfb.DialResume(cc, prev)
	if err != nil {
		h.t.Fatal(err)
	}
	rec := &rectRecorder{}
	go client.Run(rec)
	return client, rec
}

func counter(name string) int64 { return metrics.Default().Counter(name).Value() }
func gauge(name string) int64   { return metrics.Default().Gauge(name).Value() }

// TestParkAndResumeShipsOnlyDetachDamage is the heart of the detach lot:
// a session that disconnects with an incremental request parked comes
// back under its token and its first request collects exactly the damage
// that accumulated while it was away — and not before it asks: the old
// connection's request died with it, so the resync is encoded with what
// the new connection negotiated.
func TestParkAndResumeShipsOnlyDetachDamage(t *testing.T) {
	h := newLotHarness(t)
	lbl := toolkit.NewLabel("steady")
	root := toolkit.NewPanel(toolkit.VBox{Gap: 2, Padding: 2})
	root.Add(lbl)
	h.display.SetRoot(root)

	parked0 := counter("session_parked_total")
	resumed0 := counter("session_resumed_total")

	client, rec := h.connect(nil)
	token := client.Token()
	if token == "" {
		t.Fatal("server issued no session token")
	}
	if client.Resumed() {
		t.Fatal("fresh session must not report resumed")
	}
	// Sync up, then park an incremental request (no damage pending).
	client.RequestUpdate(false, gfx.R(0, 0, 160, 120))
	waitFor(t, "initial update", func() bool { u, _ := rec.snapshot(); return u >= 1 })
	client.RequestUpdate(true, gfx.R(0, 0, 160, 120))
	time.Sleep(10 * time.Millisecond) // let the request park

	// The link dies; the session parks.
	client.Close()
	waitFor(t, "session parked", func() bool { return h.srv.Parked() == 1 })
	if d := counter("session_parked_total") - parked0; d != 1 {
		t.Fatalf("session_parked_total delta = %d, want 1", d)
	}

	// Detach-window damage: the label repaints while nobody is connected.
	h.display.Update(func() { lbl.SetText("while away") })

	// The owner returns. Nothing ships until it has negotiated and asked;
	// then one update carries the detach damage, in a negotiated encoding.
	raw0 := counter("rfb_encode_raw_bytes_total")
	client2, rec2 := h.connect(client)
	defer client2.Close()
	if !client2.Resumed() {
		t.Fatal("reconnect with live token must resume")
	}
	if client2.Token() != token {
		t.Fatalf("resumed session re-keyed: %q != %q", client2.Token(), token)
	}
	waitFor(t, "resumed session registered", func() bool { return h.srv.Sessions() == 1 })
	time.Sleep(10 * time.Millisecond)
	if u, _ := rec2.snapshot(); u != 0 {
		t.Fatalf("resumed session shipped %d updates before the client asked", u)
	}
	client2.SetEncodings([]int32{rfb.EncHextile, rfb.EncRaw})
	client2.RequestUpdate(true, gfx.R(0, 0, 160, 120))
	waitFor(t, "resync update", func() bool { u, _ := rec2.snapshot(); return u >= 1 })
	if d := counter("rfb_encode_raw_bytes_total") - raw0; d != 0 {
		t.Errorf("resync shipped %d Raw bytes to a client that negotiated Hextile", d)
	}
	// One request, one reply: later damage waits for the next request.
	h.display.Update(func() { lbl.SetText("back again") })
	time.Sleep(10 * time.Millisecond)
	if u, _ := rec2.snapshot(); u != 1 {
		t.Fatalf("%d updates for one request", u)
	}
	_, rects := rec2.snapshot()
	full := gfx.R(0, 0, 160, 120)
	area := 0
	for _, r := range rects {
		area += r.Area()
		if r == full {
			t.Fatal("resync shipped a full-screen rect; wanted only detach damage")
		}
	}
	if area == 0 || area >= full.Area()/2 {
		t.Fatalf("resync area = %d px, want small non-zero (full screen = %d)", area, full.Area())
	}
	if d := counter("session_resumed_total") - resumed0; d != 1 {
		t.Fatalf("session_resumed_total delta = %d, want 1", d)
	}
	if h.srv.Parked() != 0 {
		t.Fatal("lot should be empty after resume")
	}
}

// TestResumeMissFallsBackToFreshSession: an unknown token joins cold and
// is counted as a miss, and the fresh session still works.
func TestResumeMissFallsBackToFreshSession(t *testing.T) {
	h := newLotHarness(t)
	miss0 := counter("session_resume_miss_total")
	stranger, _ := newLotHarness(t).connect(nil) // its token names no session here
	client, rec := h.connect(stranger)
	defer client.Close()
	if client.Resumed() {
		t.Fatal("unknown token must not resume")
	}
	if client.Token() == "" || client.Token() == stranger.Token() {
		t.Fatalf("fresh token not issued: %q", client.Token())
	}
	if d := counter("session_resume_miss_total") - miss0; d != 1 {
		t.Fatalf("session_resume_miss_total delta = %d, want 1", d)
	}
	client.RequestUpdate(false, gfx.R(0, 0, 160, 120))
	waitFor(t, "fresh session serves", func() bool { u, _ := rec.snapshot(); return u >= 1 })
}

// TestParkTTLExpires: a parked session not reclaimed within the TTL is
// expired by the lot janitor and a late resume misses — also when a claim
// whose handshake failed held it past its deadline (the janitor skips a
// claimed entry, so the release re-arms it).
func TestParkTTLExpires(t *testing.T) {
	h := newLotHarness(t)
	h.srv.parkTTL = 30 * time.Millisecond
	expired0 := counter("session_expired_total")

	client, _ := h.connect(nil)
	token := client.Token()
	client.Close()
	waitFor(t, "session parked", func() bool { return h.srv.Parked() == 1 })
	claimer := &session{token: token, retired: make(chan struct{})}
	if !h.srv.claimParked(token, 160, 120, claimer) {
		t.Fatal("claim of the parked session missed")
	}
	// The janitor's deadline visit skips the claimed entry and, with nothing
	// else parked, disarms.
	waitFor(t, "janitor disarmed past the claimed entry", func() bool {
		h.srv.mu.Lock()
		defer h.srv.mu.Unlock()
		return h.srv.lotTimer == nil
	})
	if h.srv.Parked() != 1 {
		t.Fatal("janitor expired a claimed entry")
	}
	h.srv.refuse(claimer, claimed) // the claimer's handshake failed
	waitFor(t, "session expired", func() bool { return h.srv.Parked() == 0 })
	if d := counter("session_expired_total") - expired0; d != 1 {
		t.Fatalf("session_expired_total delta = %d, want 1", d)
	}

	client2, _ := h.connect(client)
	defer client2.Close()
	if client2.Resumed() {
		t.Fatal("expired token must not resume")
	}
}

// TestParkCapacityEvictsOldest: the lot is bounded; the oldest parked
// session is expired to make room.
func TestParkCapacityEvictsOldest(t *testing.T) {
	h := newLotHarness(t)
	h.srv.parkCap = 2
	expired0 := counter("session_expired_total")

	var tokens []string
	for i := 0; i < 3; i++ {
		client, _ := h.connect(nil)
		tokens = append(tokens, client.Token())
		client.Close()
		waitFor(t, "session parked", func() bool { return h.srv.HasParked(tokens[i]) })
		time.Sleep(2 * time.Millisecond) // order parkedAt stamps
	}
	if h.srv.Parked() != 2 {
		t.Fatalf("lot holds %d, want capacity 2", h.srv.Parked())
	}
	if d := counter("session_expired_total") - expired0; d != 1 {
		t.Fatalf("session_expired_total delta = %d, want 1", d)
	}
	if h.srv.HasParked(tokens[0]) {
		t.Fatal("oldest session should have been evicted")
	}
	if !h.srv.HasParked(tokens[1]) || !h.srv.HasParked(tokens[2]) {
		t.Fatal("newer sessions should survive the capacity eviction")
	}
}

// TestResumeReplaysQueuedInput: input events still undispatched at
// disconnect ride through the park window and dispatch after resume —
// zero lost semantic events.
func TestResumeReplaysQueuedInput(t *testing.T) {
	h := newLotHarness(t)
	block := make(chan struct{})
	unblock := sync.OnceFunc(func() { close(block) })
	defer unblock()
	entered := make(chan struct{}, 1)
	clicks := 0
	var clickMu sync.Mutex
	btn := toolkit.NewButton("stall", func() {
		clickMu.Lock()
		clicks++
		clickMu.Unlock()
		select {
		case entered <- struct{}{}:
		default:
		}
		<-block
	})
	root := toolkit.NewPanel(toolkit.VBox{Gap: 2, Padding: 2})
	root.Add(btn)
	h.display.SetRoot(root)
	h.display.Render()

	client, _ := h.connect(nil)

	// First click stalls the dispatcher; the following presses sit in the
	// queue when the link dies.
	b := btn.Bounds()
	sendPointer(client, rfb.PointerEvent{Buttons: 1, X: uint16(b.X + 2), Y: uint16(b.Y + 2)})
	sendPointer(client, rfb.PointerEvent{Buttons: 0, X: uint16(b.X + 2), Y: uint16(b.Y + 2)})
	<-entered
	for i := 0; i < 3; i++ {
		sendPointer(client, rfb.PointerEvent{Buttons: 1, X: uint16(b.X + 2), Y: uint16(b.Y + 2)})
		sendPointer(client, rfb.PointerEvent{Buttons: 0, X: uint16(b.X + 2), Y: uint16(b.Y + 2)})
	}
	waitFor(t, "events queued", func() bool { return gauge("input_queue_depth") > 0 })

	// Kill the link with the queue loaded, then lift the stall: quit is
	// already signalled, so the dispatcher finishes only its in-flight
	// batch and the rest of the queue parks with the session.
	client.Close()
	unblock()
	waitFor(t, "session parked", func() bool { return h.srv.Parked() == 1 })

	// Resume: the parked events must dispatch on the revived session.
	client2, _ := h.connect(client)
	defer client2.Close()
	if !client2.Resumed() {
		t.Fatal("resume failed")
	}
	waitFor(t, "replayed clicks", func() bool {
		clickMu.Lock()
		defer clickMu.Unlock()
		return clicks == 4
	})
}

// TestGeometryChangeWhileParkedMisses: a display resize invalidates the
// parked session (the client's kept shadow no longer matches) — the
// reconnect joins cold instead of resuming into the wrong geometry.
func TestGeometryChangeWhileParkedMisses(t *testing.T) {
	h := newLotHarness(t)
	client, _ := h.connect(nil)
	client.Close()
	waitFor(t, "session parked", func() bool { return h.srv.Parked() == 1 })

	h.display.Resize(200, 150)
	client2, _ := h.connect(client)
	defer client2.Close()
	if client2.Resumed() {
		t.Fatal("resume across a geometry change must miss")
	}
	if w, h2 := client2.Size(); w != 200 || h2 != 150 {
		t.Fatalf("fresh session geometry = %dx%d", w, h2)
	}
	if h.srv.Parked() != 0 {
		t.Fatal("stale parked session should be gone")
	}
}

// TestCloseDrainsLot: server shutdown expires everything parked, zeroes
// the gauge, and disarms the janitor a park armed for the entry's deadline
// (the strict leakcheck is the oracle: a stray timer or turn would outlive
// Close).
func TestCloseDrainsLot(t *testing.T) {
	leakcheck.Check(t, 0)
	h := newLotHarness(t)
	g0 := gauge("session_parked")
	client, _ := h.connect(nil)
	client.Close()
	waitFor(t, "session parked", func() bool { return h.srv.Parked() == 1 })
	h.srv.mu.Lock()
	armed, at := h.srv.lotTimer != nil, h.srv.lotSweepAt
	var deadline time.Time
	for _, e := range h.srv.table {
		deadline = e.ps.deadline
	}
	h.srv.mu.Unlock()
	if !armed || !at.Equal(deadline) {
		t.Fatalf("janitor armed=%v for %v, want the park deadline %v", armed, at, deadline)
	}
	h.srv.Close()
	h.srv.mu.Lock()
	armed = h.srv.lotTimer != nil
	h.srv.mu.Unlock()
	if armed || h.srv.Parked() != 0 {
		t.Fatalf("after Close: janitor armed=%v, parked=%d", armed, h.srv.Parked())
	}
	if g := gauge("session_parked"); g != g0 {
		t.Fatalf("session_parked gauge = %d, want %d", g, g0)
	}
}

// parkImbalance is the lot's accounting identity (see lot.go) over one
// metrics snapshot: parked + migrated in, minus everything that left the
// lot, minus what is still in it. Zero when the books balance.
func parkImbalance(s metrics.Snapshot) int64 {
	c := s.Counters
	return c["session_parked_total"] + c["session_migrated_in_total"] -
		c["session_resumed_total"] - c["session_expired_total"] -
		c["session_migrated_out_total"] - s.Gauges["session_parked"]
}

// TestQuietSnapshotBalancesParkAccounting is the observer's contract: a
// snapshot that reads server_sessions back at its baseline reads balanced
// park accounting, even one taken while the last teardowns are still
// running. Each round a burst of clients connects, then drops all at once
// (the lot is smaller than a burst, so capacity expiry is in play too)
// while an observer snapshots in a tight loop. Both halves of the contract
// are needed and the test fails without either: teardown drops
// server_sessions only after retire has parked, and Snapshot samples
// gauges before counters.
func TestQuietSnapshotBalancesParkAccounting(t *testing.T) {
	srv := New(toolkit.NewDisplay(16, 16), "quiet snapshot", nil)
	srv.parkCap = 3
	defer srv.Close()
	base := metrics.Default().Snapshot()
	baseSessions, baseImbalance := base.Gauges["server_sessions"], parkImbalance(base)

	// drops counts drop phases begun plus drop phases ended: odd while a
	// burst is being dropped and torn down. The observer snapshots only
	// then, and discards a snapshot the phase changed under — what moves
	// during a judged snapshot is server-side teardown and nothing else,
	// exactly what a harness waiting on server_sessions races against.
	var drops atomic.Int64
	kick := make(chan struct{}, 1) // a pending wake-up; the sender never blocks
	observed := make(chan struct{})
	judged := 0
	go func() {
		defer close(observed)
		for range kick {
			for {
				phase := drops.Load()
				if phase%2 == 0 {
					break
				}
				snap := metrics.Default().Snapshot()
				if drops.Load() != phase || snap.Gauges["server_sessions"] != baseSessions {
					continue
				}
				judged++
				if d := parkImbalance(snap) - baseImbalance; d != 0 {
					t.Errorf("snapshot with server_sessions at baseline has park imbalance %+d", d)
					return
				}
			}
		}
	}()

	const rounds, burst = 100, 4
	for r := 0; r < rounds && !t.Failed(); r++ {
		clients := make([]*rfb.ClientConn, burst)
		var wg sync.WaitGroup
		for i := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc, cc := net.Pipe()
				go srv.Attach(sc)
				client, err := rfb.Dial(cc)
				if err != nil {
					t.Error(err)
					return
				}
				clients[i] = client
			}()
		}
		wg.Wait()
		if t.Failed() {
			break
		}
		// A client's handshake can finish before the server counts the
		// session; drop only once every session is on the gauge, so a
		// baseline reading can only mean "all torn down", never "not yet up".
		waitFor(t, "burst connected", func() bool { return gauge("server_sessions") == baseSessions+burst })
		drops.Add(1)
		select {
		case kick <- struct{}{}:
		default:
		}
		for _, client := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				client.Close()
			}()
		}
		wg.Wait()
		waitFor(t, "burst torn down", func() bool { return gauge("server_sessions") == baseSessions })
		drops.Add(1)
	}
	close(kick)
	<-observed
	if judged == 0 && !t.Failed() {
		t.Fatal("observer never saw a snapshot with server_sessions at baseline")
	}
}

// TestCapacityEvictionSparesUndispatchedInput: the capacity victim is the
// oldest entry that holds no undispatched input — the bound caps memory,
// it should not cost a user's key press while another victim will do —
// and only a lot full of input-holding entries gives one of those up.
func TestCapacityEvictionSparesUndispatchedInput(t *testing.T) {
	srv := New(toolkit.NewDisplay(16, 16), "capacity order", nil)
	srv.parkCap = 3
	defer srv.Close()
	now := time.Now()
	plant := func(token string, age time.Duration, events int) {
		ps := &parkedSession{
			w: 16, h: 16,
			cur:      cursor{dirty: gfx.NewDamage(gfx.R(0, 0, 16, 16), 16)},
			events:   make([]inputEvent, events),
			parkedAt: now.Add(-age), deadline: now.Add(time.Minute),
		}
		srv.pumpMu.Lock()
		srv.stamp(&ps.cur)
		srv.pumpMu.Unlock()
		srv.mu.Lock()
		defer srv.mu.Unlock()
		if srv.transition(token, gone, parked, nil, ps) == nil {
			t.Fatalf("planting %q refused", token)
		}
	}
	// evict runs one capacity check and names the row it expired ("" for
	// none).
	evict := func() string {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		before := make(map[string]bool, len(srv.table))
		for tok := range srv.table {
			before[tok] = true
		}
		srv.makeRoomLocked()
		for tok := range before {
			if srv.table[tok] == nil {
				return tok
			}
		}
		return ""
	}
	abandoned0 := counter("input_abandoned_total")
	plant("oldest-holds-a-key-release", 3*time.Second, 1)
	plant("older", 2*time.Second, 0)
	plant("newer", time.Second, 0)
	if got := evict(); got != "older" {
		t.Fatalf("first victim %q, want the oldest entry without input", got)
	}
	if got := evict(); got != "" {
		t.Fatalf("evicted %q from a lot below capacity", got)
	}
	plant("newest-holds-two", 0, 2)
	if got := evict(); got != "newer" {
		t.Fatalf("second victim %q, want the last entry without input", got)
	}
	if d := counter("input_abandoned_total") - abandoned0; d != 0 {
		t.Fatalf("input_abandoned_total moved by %d while input-free victims remained", d)
	}
	plant("filler-holds-one", time.Second, 1)
	if got := evict(); got != "oldest-holds-a-key-release" {
		t.Fatalf("third victim %q, want the oldest once every entry holds input", got)
	}
	if d := counter("input_abandoned_total") - abandoned0; d != 1 {
		t.Fatalf("input_abandoned_total delta = %d, want the one evicted key release", d)
	}
}
