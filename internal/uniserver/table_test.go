package uniserver

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"testing"
	"time"

	"uniint/internal/leakcheck"
	"uniint/internal/metrics"
	"uniint/internal/rfb"
	"uniint/internal/toolkit"
)

// stateOf reads token's row state (gone when it has none).
func stateOf(srv *Server, token string) state {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if e := srv.table[token]; e != nil {
		return e.state
	}
	return gone
}

// TestImportRefusesHeldToken: a token is in exactly one place. Importing a
// record whose token the server already holds — parked by an earlier
// import of the same record, or live — is refused and moves no counter,
// so Close leaves the session_parked gauge at its baseline.
func TestImportRefusesHeldToken(t *testing.T) {
	h := newLotHarness(t)
	g0, in0 := gauge("session_parked"), counter("session_migrated_in_total")
	imbalance0 := parkImbalance(metrics.Default().Snapshot())
	rec := &rfb.MigrationRecord{Token: "00112233445566778899aabb", W: 160, H: 120, RemainingTTL: time.Minute}
	if err := h.srv.ImportParked(rec); err != nil {
		t.Fatal(err)
	}
	if err := h.srv.ImportParked(rec); err == nil {
		t.Fatal("a second import of the same record was accepted")
	}
	if p, d := h.srv.Parked(), gauge("session_parked")-g0; p != 1 || d != 1 {
		t.Fatalf("after a duplicate import: Parked() = %d, session_parked delta = %d, want 1 and 1", p, d)
	}

	client, _ := h.connect(nil)
	defer client.Close()
	waitFor(t, "session live", func() bool { return stateOf(h.srv, client.Token()) == live })
	onto := &rfb.MigrationRecord{Token: client.Token(), W: 160, H: 120, RemainingTTL: time.Minute}
	if err := h.srv.ImportParked(onto); err == nil {
		t.Fatal("an import onto a live token was accepted")
	}
	if st := stateOf(h.srv, client.Token()); st != live {
		t.Fatalf("live token in state %d after a refused import", st)
	}
	if d := counter("session_migrated_in_total") - in0; d != 1 {
		t.Fatalf("session_migrated_in_total delta = %d, want 1", d)
	}

	h.srv.Close()
	if d := gauge("session_parked") - g0; d != 0 {
		t.Fatalf("session_parked delta after Close = %d, want 0", d)
	}
	if d := parkImbalance(metrics.Default().Snapshot()) - imbalance0; d != 0 {
		t.Errorf("park accounting identity off by %d", d)
	}
}

// modelConn is one client of the model test: a served session, or a
// handshake stalled before its ServerInit.
type modelConn struct {
	client net.Conn
	done   <-chan error // Attach's result
}

// end closes the client and waits for its Attach to return.
func (c *modelConn) end(t *testing.T) {
	t.Helper()
	c.client.Close()
	returned(t, c.done)
}

// modelServer is one server and what the model says its table holds.
type modelServer struct {
	srv      *Server
	state    map[string]state
	parkedAt map[string]time.Time // as the server stamped it; orders capacity victims
	conns    map[string]*modelConn
}

const modelLotCap = 3

func newModelServer() *modelServer {
	srv := New(toolkit.NewDisplay(32, 24), "model", nil)
	srv.parkCap = modelLotCap
	return &modelServer{
		srv:      srv,
		state:    map[string]state{},
		parkedAt: map[string]time.Time{},
		conns:    map[string]*modelConn{},
	}
}

// tokens lists the model's tokens in state st (any state when st is gone),
// sorted so a seed replays the same choices.
func (m *modelServer) tokens(st state) []string {
	var out []string
	for tok, s := range m.state {
		if st == gone || s == st {
			out = append(out, tok)
		}
	}
	sort.Strings(out)
	return out
}

// lotCount counts the model's parked and claimed tokens.
func (m *modelServer) lotCount() int {
	return len(m.tokens(parked)) + len(m.tokens(claimed))
}

// makeRoom applies the capacity rule to the model before a token enters
// the lot: the oldest parked token goes (the model sessions hold no input).
func (m *modelServer) makeRoom() {
	if m.lotCount() < modelLotCap {
		return
	}
	victim := ""
	for _, tok := range m.tokens(parked) {
		if victim == "" || m.parkedAt[tok].Before(m.parkedAt[victim]) {
			victim = tok
		}
	}
	if victim != "" {
		m.forget(victim)
	}
}

func (m *modelServer) forget(tok string) {
	delete(m.state, tok)
	delete(m.parkedAt, tok)
	delete(m.conns, tok)
}

// park records tok entering the lot, reading the server's stamp.
func (m *modelServer) park(tok string) {
	m.state[tok] = parked
	m.srv.mu.Lock()
	m.parkedAt[tok] = m.srv.table[tok].ps.parkedAt
	m.srv.mu.Unlock()
	delete(m.conns, tok)
}

// dial attaches a client over net.Pipe presenting token (may be "") and
// completes the handshake, returning the verdict and the issued token.
func (m *modelServer) dial(t *testing.T, token string) (*modelConn, bool, string) {
	t.Helper()
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- m.srv.Attach(server) }()
	go client.Write(rfb.ClientHello(token))
	resumed, issued := readServerInit(t, client)
	return &modelConn{client: client, done: done}, resumed, issued
}

// stall starts a handshake presenting token (may be "") and stops it
// after the security word: the server has run its token exchange and is
// blocked writing ServerInit. It returns the token the row was keyed by.
func (m *modelServer) stall(t *testing.T, token string) (*modelConn, string) {
	t.Helper()
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- m.srv.Attach(server) }()
	go client.Write(rfb.ClientHello(token))
	if _, err := io.ReadFull(client, make([]byte, len(rfb.ProtocolVersion)+4)); err != nil {
		t.Fatal(err)
	}
	keyed := ""
	waitFor(t, "stalled handshake keyed", func() bool {
		m.srv.mu.Lock()
		defer m.srv.mu.Unlock()
		for tok, e := range m.srv.table {
			if e.sess != nil && e.sess.link == server {
				keyed = tok
				return true
			}
		}
		return false
	})
	return &modelConn{client: client, done: done}, keyed
}

// check holds the servers to the model: every row's state, Sessions() and
// Parked(), the two gauges and the park identity as deltas from the base.
func checkModel(t *testing.T, step string, servers []*modelServer, base metrics.Snapshot) {
	t.Helper()
	liveN, lotN := 0, 0
	for i, m := range servers {
		m.srv.mu.Lock()
		got := make(map[string]state, len(m.srv.table))
		for tok, e := range m.srv.table {
			got[tok] = e.state
		}
		m.srv.mu.Unlock()
		if fmt.Sprint(got) != fmt.Sprint(m.state) {
			t.Fatalf("%s: server %d table %v, model %v", step, i, got, m.state)
		}
		l, p := len(m.tokens(live)), m.lotCount()
		if m.srv.Sessions() != l || m.srv.Parked() != p {
			t.Fatalf("%s: server %d Sessions() = %d, Parked() = %d; model %d, %d",
				step, i, m.srv.Sessions(), m.srv.Parked(), l, p)
		}
		liveN, lotN = liveN+l, lotN+p
	}
	snap := metrics.Default().Snapshot()
	if d := snap.Gauges["server_sessions"] - base.Gauges["server_sessions"]; d != int64(liveN) {
		t.Fatalf("%s: server_sessions delta %d, model %d", step, d, liveN)
	}
	if d := snap.Gauges["session_parked"] - base.Gauges["session_parked"]; d != int64(lotN) {
		t.Fatalf("%s: session_parked delta %d, model %d", step, d, lotN)
	}
	if d := parkImbalance(snap) - parkImbalance(base); d != 0 {
		t.Fatalf("%s: park accounting identity off by %d", step, d)
	}
}

// TestSessionTableModel is the session table's oracle. Over seeded random
// sequences it drives two servers through connect, drop, resume, takeover
// of a live session and of a stalled handshake (fresh or resuming),
// stalled handshakes that fail, a redial with a token the server no longer
// holds, export and import into the other server (plus a refused duplicate
// import and a refused import onto a held token), forced expiry, capacity
// overflow and Close, over net.Pipe. After every step the table, the
// counts and the gauges equal the model's and the park identity holds.
// Across its seeds every legal edge of the lifecycle must be taken.
func TestSessionTableModel(t *testing.T) {
	leakcheck.Check(t, 0)
	const seeds, steps = 6, 60
	var taken [claimed + 1][claimed + 1]int
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := metrics.Default().Snapshot()
		servers := []*modelServer{newModelServer(), newModelServer()}
		var spent []string // tokens some server held once
		closeServer := func(i int) {
			m := servers[i]
			m.srv.Close()
			if m.srv.Sessions() != 0 || m.srv.Parked() != 0 {
				t.Fatalf("seed %d: after Close, Sessions() = %d, Parked() = %d", seed, m.srv.Sessions(), m.srv.Parked())
			}
			for _, tok := range m.tokens(gone) {
				if c := m.conns[tok]; c != nil {
					c.end(t) // live sessions are closed already; stalls fail now
				}
			}
			m.srv.mu.Lock()
			for from := range taken {
				for to := range taken[from] {
					taken[from][to] += m.srv.taken[from][to]
				}
			}
			m.srv.mu.Unlock()
			servers[i] = newModelServer()
		}
		for step := 0; step < steps; step++ {
			i := rng.Intn(2)
			m, other := servers[i], servers[1-i]
			pick := func(st state) string {
				toks := m.tokens(st)
				if len(toks) == 0 {
					return ""
				}
				return toks[rng.Intn(len(toks))]
			}
			var what string
			switch op := rng.Intn(10); {
			case op <= 1: // connect, or redial any token this server holds or once held
				tok := ""
				if op == 1 {
					tok = pick(gone)
					if rng.Intn(4) == 0 && len(spent) > 0 {
						tok = spent[rng.Intn(len(spent))]
					}
				}
				was := m.state[tok] // gone when the server holds no row
				what = fmt.Sprintf("redial %q (state %d)", tok, was)
				old := m.conns[tok]
				if was == live {
					m.makeRoom() // the taken-over session parks first
				}
				c, resumed, issued := m.dial(t, tok)
				want := was == live || was == parked || was == claimed
				if resumed != want || (want && issued != tok) {
					t.Fatalf("seed %d step %d %s: resumed=%v issued %q", seed, step, what, resumed, issued)
				}
				if old != nil {
					returned(t, old.done) // taken over
					old.client.Close()
				}
				if !want && was != gone {
					m.forget(tok) // a stalled fresh handshake, taken over
				}
				if tok != "" && !want {
					spent = append(spent, tok)
				}
				delete(m.parkedAt, issued)
				m.state[issued], m.conns[issued] = live, c
				waitFor(t, "redial live", func() bool { return stateOf(m.srv, issued) == live })
			case op == 2: // drop
				tok := pick(live)
				if tok == "" {
					continue
				}
				what = "drop " + tok
				m.makeRoom()
				m.conns[tok].end(t)
				m.park(tok)
			case op == 3: // stall a handshake, fresh or resuming
				tok := ""
				if rng.Intn(2) == 0 {
					if tok = pick(parked); tok == "" {
						continue
					}
				}
				c, keyed := m.stall(t, tok)
				what = fmt.Sprintf("stall %q as %q", tok, keyed)
				if tok != "" && keyed != tok {
					t.Fatalf("seed %d step %d %s: claim missed", seed, step, what)
				}
				m.state[keyed], m.conns[keyed] = handshaking, c
				if tok != "" {
					m.state[keyed] = claimed
				}
				waitFor(t, "stall keyed", func() bool { return stateOf(m.srv, keyed) == m.state[keyed] })
			case op == 4: // a stalled handshake fails
				tok := pick(handshaking)
				if rng.Intn(2) == 0 || tok == "" {
					tok = pick(claimed)
				}
				if tok == "" {
					continue
				}
				what = "abort " + tok
				m.conns[tok].end(t)
				delete(m.conns, tok)
				if m.state[tok] == claimed {
					m.state[tok] = parked
				} else {
					m.forget(tok)
				}
			case op == 5: // export to the other server, then import it twice
				tok := pick(parked)
				if tok == "" {
					continue
				}
				what = "export " + tok
				rec, ok := m.srv.ExportParked(tok)
				if !ok {
					t.Fatalf("seed %d step %d: %s refused", seed, step, what)
				}
				m.forget(tok)
				other.makeRoom()
				if err := other.srv.ImportParked(rec); err != nil {
					t.Fatal(err)
				}
				if err := other.srv.ImportParked(rec); err == nil {
					t.Fatalf("seed %d step %d: duplicate import accepted", seed, step)
				}
				other.park(tok)
			case op == 6: // an import onto a token this server holds
				tok := pick(gone)
				if tok == "" {
					continue
				}
				what = "import onto " + tok
				rec := &rfb.MigrationRecord{Token: tok, W: 32, H: 24, RemainingTTL: time.Minute}
				if err := m.srv.ImportParked(rec); err == nil {
					t.Fatalf("seed %d step %d: %s accepted", seed, step, what)
				}
			case op == 7: // forced expiry: the deadline moves into the past
				tok := pick(parked)
				if tok == "" {
					continue
				}
				what = "expire " + tok
				m.srv.mu.Lock()
				ps := m.srv.table[tok].ps
				ps.deadline = time.Now().Add(-time.Millisecond)
				m.srv.scheduleSweepLocked(ps.deadline)
				m.srv.mu.Unlock()
				waitFor(t, "janitor expiry", func() bool { return stateOf(m.srv, tok) == gone })
				m.forget(tok)
				spent = append(spent, tok)
			case op == 8: // capacity overflow: park until the lot evicts
				what = "overflow"
				for n := m.lotCount(); n <= modelLotCap; n++ {
					c, _, issued := m.dial(t, "")
					m.state[issued] = live
					waitFor(t, "overflow session live", func() bool { return stateOf(m.srv, issued) == live })
					m.makeRoom()
					c.end(t)
					m.park(issued)
				}
			case op == 9: // Close, now and then
				if rng.Intn(3) != 0 {
					continue
				}
				what = fmt.Sprintf("close server %d", i)
				closeServer(i)
			}
			checkModel(t, fmt.Sprintf("seed %d step %d (%s)", seed, step, what), servers, base)
		}
		for i := range servers {
			closeServer(i)
		}
		checkModel(t, fmt.Sprintf("seed %d closed", seed), servers, base)
	}
	for e := range lifecycle {
		if taken[e.from][e.to] == 0 {
			t.Errorf("edge %d → %d never taken across %d seeds", e.from, e.to, seeds)
		}
	}
}
