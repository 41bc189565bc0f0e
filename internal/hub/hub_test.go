package hub

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uniint/internal/metrics"
	"uniint/internal/rfb"
)

// stubHome is a minimal ConnHandler: echoes one byte per connection and
// records lifecycle. Factories wrap it with AdaptConnHandler.
type stubHome struct {
	id     string
	closed atomic.Bool
	served atomic.Int64
}

func (s *stubHome) HandleConn(conn net.Conn) error {
	defer conn.Close()
	s.served.Add(1)
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err != nil {
		return err
	}
	_, err := conn.Write(buf)
	return err
}

func (s *stubHome) Close() { s.closed.Store(true) }

// stubFactory counts creations per id.
type stubFactory struct {
	mu      sync.Mutex
	created map[string]int
	homes   map[string]*stubHome
}

func newStubFactory() *stubFactory {
	return &stubFactory{created: make(map[string]int), homes: make(map[string]*stubHome)}
}

func (f *stubFactory) factory(id string) (Host, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.created[id]++
	h := &stubHome{id: id}
	f.homes[id] = h
	return AdaptConnHandler(h), nil
}

func (f *stubFactory) creations(id string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.created[id]
}

func (f *stubFactory) home(id string) *stubHome {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.homes[id]
}

func newTestHub(t *testing.T, opts Options) (*Hub, *stubFactory) {
	t.Helper()
	f := newStubFactory()
	if opts.Factory == nil {
		opts.Factory = f.factory
	}
	if opts.Metrics == nil {
		opts.Metrics = metrics.NewRegistry()
	}
	h, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h, f
}

func TestAdmitOnce(t *testing.T) {
	h, f := newTestHub(t, Options{Shards: 4})
	a, err := h.Admit("home-1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Admit("home-1")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second admission returned a different home")
	}
	if got := f.creations("home-1"); got != 1 {
		t.Fatalf("factory ran %d times, want 1", got)
	}
	if h.Homes() != 1 {
		t.Fatalf("Homes() = %d, want 1", h.Homes())
	}
}

func TestAdmitConcurrentSingleCreation(t *testing.T) {
	h, f := newTestHub(t, Options{Shards: 8})
	const workers, homes = 32, 16
	var wg sync.WaitGroup
	errs := make(chan error, workers*homes)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < homes; i++ {
				if _, err := h.Admit(fmt.Sprintf("home-%03d", i)); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if h.Homes() != homes {
		t.Fatalf("Homes() = %d, want %d", h.Homes(), homes)
	}
	for i := 0; i < homes; i++ {
		id := fmt.Sprintf("home-%03d", i)
		if got := f.creations(id); got != 1 {
			t.Fatalf("%s created %d times, want 1", id, got)
		}
	}
	if got := len(h.HomeIDs()); got != homes {
		t.Fatalf("HomeIDs() has %d entries, want %d", got, homes)
	}
}

func TestGetDoesNotAdmit(t *testing.T) {
	h, _ := newTestHub(t, Options{})
	if _, err := h.Get("nope"); !errors.Is(err, ErrUnknownHome) {
		t.Fatalf("Get on absent home: %v, want ErrUnknownHome", err)
	}
	if h.Homes() != 0 {
		t.Fatal("Get must not admit")
	}
	if _, err := h.Admit("yes"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get("yes"); err != nil {
		t.Fatalf("Get after admit: %v", err)
	}
}

func TestMaxHomes(t *testing.T) {
	h, _ := newTestHub(t, Options{MaxHomes: 2})
	for i := 0; i < 2; i++ {
		if _, err := h.Admit(fmt.Sprintf("h%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.Admit("h2"); !errors.Is(err, ErrFull) {
		t.Fatalf("third admission: %v, want ErrFull", err)
	}
	// Resident homes stay reachable at capacity.
	if _, err := h.Admit("h0"); err != nil {
		t.Fatalf("resident admission at capacity: %v", err)
	}
	// Eviction frees a slot.
	if !h.Evict("h0") {
		t.Fatal("evict failed")
	}
	if _, err := h.Admit("h2"); err != nil {
		t.Fatalf("admission after eviction: %v", err)
	}
}

func TestRouteServesConnection(t *testing.T) {
	h, f := newTestHub(t, Options{})
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- h.Route("home-a", server) }()

	if _, err := client.Write([]byte{0x42}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := client.Read(buf); err != nil || buf[0] != 0x42 {
		t.Fatalf("echo: %v %x", err, buf)
	}
	client.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := f.home("home-a").served.Load(); got != 1 {
		t.Fatalf("served = %d, want 1", got)
	}
	if h.Connections() != 0 {
		t.Fatalf("connections = %d after disconnect, want 0", h.Connections())
	}
}

func TestServeConnPreambleRouting(t *testing.T) {
	h, f := newTestHub(t, Options{})
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- h.ServeConn(server) }()

	if err := WritePreamble(client, "home-42"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write([]byte{7}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := client.Read(buf); err != nil || buf[0] != 7 {
		t.Fatalf("echo through preamble routing: %v %x", err, buf)
	}
	client.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if f.home("home-42") == nil {
		t.Fatal("preamble did not admit home-42")
	}
}

func TestServeConnBadPreamble(t *testing.T) {
	h, _ := newTestHub(t, Options{})
	for _, line := range []string{"GARBAGE home-1\n", "UNIHUB/1 \n", strings.Repeat("x", 400)} {
		client, server := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- h.ServeConn(server) }()
		go func() {
			client.Write([]byte(line))
			client.Close()
		}()
		if err := <-done; !errors.Is(err, ErrBadPreamble) {
			t.Fatalf("line %q: %v, want ErrBadPreamble", line[:min(len(line), 20)], err)
		}
	}
	if h.Homes() != 0 {
		t.Fatal("bad preambles must not admit homes")
	}
}

func TestPreambleRoundTrip(t *testing.T) {
	var sb strings.Builder
	if err := WritePreamble(&sb, "kitchen-home"); err != nil {
		t.Fatal(err)
	}
	p, err := ParsePreamble(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if p.HomeID != "kitchen-home" || p.Token != "" {
		t.Fatalf("round trip = %+v", p)
	}
	// The reader must not consume past the newline.
	r := strings.NewReader(sb.String() + "PROTO")
	if _, err := ParsePreamble(r); err != nil {
		t.Fatal(err)
	}
	rest := make([]byte, 5)
	if _, err := r.Read(rest); err != nil || string(rest) != "PROTO" {
		t.Fatalf("preamble over-read: %q %v", rest, err)
	}
	if err := WritePreamble(&sb, "has space"); err == nil {
		t.Fatal("home id with space must be rejected")
	}
	if err := WritePreamble(&sb, ""); err == nil {
		t.Fatal("empty home id must be rejected")
	}
}

func TestPreambleTokenRoundTrip(t *testing.T) {
	var sb strings.Builder
	if err := WritePreambleToken(&sb, "home-7", "deadbeef"); err != nil {
		t.Fatal(err)
	}
	p, err := ParsePreamble(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if p.HomeID != "home-7" || p.Token != "deadbeef" {
		t.Fatalf("round trip = %+v", p)
	}
	// Token routing wildcard.
	sb.Reset()
	if err := WritePreambleToken(&sb, TokenHome, "deadbeef"); err != nil {
		t.Fatal(err)
	}
	if p, err = ParsePreamble(strings.NewReader(sb.String())); err != nil || p.HomeID != TokenHome || p.Token != "deadbeef" {
		t.Fatalf("token-route round trip = %+v %v", p, err)
	}
	// Malformed variants.
	if err := WritePreambleToken(&sb, TokenHome, ""); err == nil {
		t.Fatal("token routing without a token must be rejected")
	}
	if err := WritePreambleToken(&sb, "home-7", "has space"); err == nil {
		t.Fatal("token with space must be rejected")
	}
	if _, err := ParsePreamble(strings.NewReader("UNIHUB/1 home-7 a b\n")); err == nil {
		t.Fatal("two token fields must be rejected")
	}
	if _, err := ParsePreamble(strings.NewReader("UNIHUB/1 ~\n")); err == nil {
		t.Fatal("bare token-route wildcard must be rejected")
	}
}

func TestEvictPinnedHomeRefused(t *testing.T) {
	h, f := newTestHub(t, Options{})
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- h.Route("busy", server) }()
	// Wait for the connection to pin the home.
	deadline := time.Now().Add(2 * time.Second)
	for h.Connections() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("connection never pinned")
		}
		time.Sleep(time.Millisecond)
	}
	if h.Evict("busy") {
		t.Fatal("evicted a home with a live connection")
	}
	if f.home("busy").closed.Load() {
		t.Fatal("home closed while pinned")
	}
	client.Close()
	<-done
	if !h.Evict("busy") {
		t.Fatal("eviction after disconnect failed")
	}
	if !f.home("busy").closed.Load() {
		t.Fatal("evicted home not closed")
	}
}

func TestIdleSweep(t *testing.T) {
	h, f := newTestHub(t, Options{IdleTimeout: 10 * time.Millisecond})
	if _, err := h.Admit("sleepy"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	h.sweep()
	if h.Homes() != 0 {
		t.Fatalf("idle home survived sweep: %d resident", h.Homes())
	}
	if !f.home("sleepy").closed.Load() {
		t.Fatal("swept home not closed")
	}
	// Re-admission after eviction works.
	if _, err := h.Admit("sleepy"); err != nil {
		t.Fatal(err)
	}
	if got := f.creations("sleepy"); got != 2 {
		t.Fatalf("creations = %d, want 2", got)
	}
}

func TestDrainRejectsNewHomes(t *testing.T) {
	h, _ := newTestHub(t, Options{})
	if _, err := h.Admit("resident"); err != nil {
		t.Fatal(err)
	}
	if err := h.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Admit("newcomer"); !errors.Is(err, ErrDraining) {
		t.Fatalf("admission while draining: %v, want ErrDraining", err)
	}
	// Resident homes keep serving while draining.
	if _, err := h.Admit("resident"); err != nil {
		t.Fatalf("resident lookup while draining: %v", err)
	}
}

func TestCloseShutsHomesAndRejects(t *testing.T) {
	h, f := newTestHub(t, Options{})
	for i := 0; i < 5; i++ {
		if _, err := h.Admit(fmt.Sprintf("h%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	h.Close()
	for i := 0; i < 5; i++ {
		if !f.home(fmt.Sprintf("h%d", i)).closed.Load() {
			t.Fatalf("h%d not closed", i)
		}
	}
	if h.Homes() != 0 {
		t.Fatalf("Homes() = %d after Close", h.Homes())
	}
	if _, err := h.Admit("late"); !errors.Is(err, ErrClosed) {
		t.Fatalf("admission after close: %v, want ErrClosed", err)
	}
	h.Close() // idempotent
}

func TestShardCountRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 16}, {1, 1}, {3, 4}, {16, 16}, {17, 32}, {100, 128},
	} {
		opts := Options{Factory: func(string) (Host, error) { return AdaptConnHandler(&stubHome{}), nil },
			Shards: tc.in, Metrics: metrics.NewRegistry()}
		h, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(h.shards); got != tc.want {
			t.Fatalf("Shards %d → %d shards, want %d", tc.in, got, tc.want)
		}
		h.Close()
	}
}

func TestConcurrentRouteAndEvict(t *testing.T) {
	h, _ := newTestHub(t, Options{Shards: 4})
	const homes = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Evictor hammers all homes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for i := 0; i < homes; i++ {
					h.Evict(fmt.Sprintf("h%d", i))
				}
			}
		}
	}()
	// Routers keep connecting.
	var served atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("h%d", (w+i)%homes)
				client, server := net.Pipe()
				done := make(chan error, 1)
				go func() { done <- h.Route(id, server) }()
				client.Write([]byte{1})
				buf := make([]byte, 1)
				if _, err := client.Read(buf); err == nil {
					served.Add(1)
				}
				client.Close()
				<-done
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if served.Load() == 0 {
		t.Fatal("no connection survived route/evict churn")
	}
}

func TestHubMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	h, _ := newTestHub(t, Options{Metrics: reg})
	if _, err := h.Admit("m1"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Admit("m1"); err != nil {
		t.Fatal(err)
	}
	h.Evict("m1")
	s := reg.Snapshot()
	if s.Counters["hub_admissions_total"] != 1 {
		t.Fatalf("admissions = %d", s.Counters["hub_admissions_total"])
	}
	if s.Counters["hub_route_hits_total"] != 1 || s.Counters["hub_route_misses_total"] != 1 {
		t.Fatalf("hits/misses = %d/%d", s.Counters["hub_route_hits_total"], s.Counters["hub_route_misses_total"])
	}
	if s.Counters["hub_evictions_total"] != 1 {
		t.Fatalf("evictions = %d", s.Counters["hub_evictions_total"])
	}
	if s.Gauges["hub_homes"] != 0 {
		t.Fatalf("hub_homes gauge = %d, want 0", s.Gauges["hub_homes"])
	}
}

func TestAdmitRacingCloseLeaksNothing(t *testing.T) {
	// Homes admitted concurrently with Close must either fail admission
	// or end up closed — never resident in a closed hub.
	for round := 0; round < 20; round++ {
		f := newStubFactory()
		h, err := New(Options{Factory: f.factory, Metrics: metrics.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					_, _ = h.Admit(fmt.Sprintf("r%d-w%d-h%d", round, w, i))
				}
			}(w)
		}
		h.Close()
		wg.Wait()
		if got := h.Homes(); got != 0 {
			t.Fatalf("round %d: %d homes resident after Close", round, got)
		}
		f.mu.Lock()
		for id, home := range f.homes {
			if !home.closed.Load() {
				t.Fatalf("round %d: %s created but never closed", round, id)
			}
		}
		f.mu.Unlock()
	}
}

func TestFactoryErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	h, _ := newTestHub(t, Options{Factory: func(id string) (Host, error) {
		return nil, boom
	}})
	if _, err := h.Admit("x"); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if h.Homes() != 0 {
		t.Fatal("failed admission left a resident home")
	}
}

// parkingHome is a stubHome extended to the full Host surface with a
// controllable one-slot detach lot for eviction and migration tests.
type parkingHome struct {
	stubHome
	parked atomic.Int64
	token  atomic.Value // string
}

func (p *parkingHome) Attach(conn net.Conn) error { return p.HandleConn(conn) }

func (p *parkingHome) Parked() int { return int(p.parked.Load()) }

func (p *parkingHome) HasParked(token string) bool {
	if p.parked.Load() == 0 {
		return false
	}
	t, _ := p.token.Load().(string)
	return t == token
}

func (p *parkingHome) ParkedTokens() []string {
	if p.parked.Load() == 0 {
		return nil
	}
	t, _ := p.token.Load().(string)
	if t == "" {
		return nil
	}
	return []string{t}
}

func (p *parkingHome) ExportParked(token string) (*rfb.MigrationRecord, bool) {
	if !p.HasParked(token) || !p.claim() {
		return nil, false
	}
	return &rfb.MigrationRecord{Token: token, W: 8, H: 8}, true
}

func (p *parkingHome) ImportParked(rec *rfb.MigrationRecord) error {
	p.token.Store(rec.Token)
	p.parked.Store(1)
	return nil
}

func (p *parkingHome) DetachSessions(time.Duration) error { return nil }

// claim simulates a resume: the parked session leaves the lot for a live
// connection.
func (p *parkingHome) claim() bool {
	return p.parked.CompareAndSwap(1, 0)
}

func TestEvictSkipsParkedHome(t *testing.T) {
	reg := metrics.NewRegistry()
	home := &parkingHome{}
	h, err := New(Options{Metrics: reg, Factory: func(id string) (Host, error) { return home, nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := h.Admit("parked-home"); err != nil {
		t.Fatal(err)
	}

	home.parked.Store(1)
	if h.Evict("parked-home") {
		t.Fatal("evicted a home with a parked session")
	}
	if home.closed.Load() {
		t.Fatal("park-skipped home must stay open")
	}
	if got := reg.Counter("hub_evictions_skipped_parked_total").Value(); got != 1 {
		t.Fatalf("skip counter = %d, want 1", got)
	}

	home.parked.Store(0)
	if !h.Evict("parked-home") {
		t.Fatal("empty-lot home should evict")
	}
}

// TestEvictionRacingResumeClaim hammers Evict against connections that
// claim the parked session (the resume path): whatever interleaving the
// scheduler produces, the home is never evicted while the session is
// parked or its claimant is being served — the claim either lands on the
// resident home or the connection routes to a re-admitted one.
func TestEvictionRacingResumeClaim(t *testing.T) {
	for round := 0; round < 50; round++ {
		reg := metrics.NewRegistry()
		var mu sync.Mutex
		var homes []*parkingHome
		h, err := New(Options{Metrics: reg, Factory: func(id string) (Host, error) {
			ph := &parkingHome{}
			mu.Lock()
			homes = append(homes, ph)
			mu.Unlock()
			return ph, nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Admit("race-home"); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		first := homes[0]
		mu.Unlock()
		first.parked.Store(1)

		evictDone := make(chan bool, 1)
		go func() {
			// Sweep-style eviction pressure.
			ok := false
			for i := 0; i < 100 && !ok; i++ {
				ok = h.Evict("race-home")
			}
			evictDone <- ok
		}()

		// The resume claim: route a connection that claims the parked
		// session during "handshake" (inside HandleConn).
		sc, cc := net.Pipe()
		routeDone := make(chan error, 1)
		go func() { routeDone <- h.Route("race-home", sc) }()
		go func() {
			buf := make([]byte, 1)
			cc.Write([]byte{1})
			cc.Read(buf)
			cc.Close()
		}()
		<-routeDone
		<-evictDone

		// Invariant: the claimant was served by a live home — the echo
		// completed (Route returned after HandleConn) and whichever home
		// served it was not closed underneath the connection.
		mu.Lock()
		served := int64(0)
		for _, ph := range homes {
			served += ph.served.Load()
		}
		mu.Unlock()
		if served != 1 {
			t.Fatalf("round %d: claimant served %d times, want 1", round, served)
		}
		h.Close()
	}
}

// TestDrainRacesAdmitAndTokenResume pins the drain-window contract: a
// draining hub refuses NEW admissions, but resident homes keep routing
// (the lookup fast path precedes the draining check) and a token resume
// for a parked session still lands — a deploy must not strand the
// clients it is waiting for.
func TestDrainRacesAdmitAndTokenResume(t *testing.T) {
	reg := metrics.NewRegistry()
	var mu sync.Mutex
	homes := map[string]*parkingHome{}
	h, err := New(Options{Metrics: reg, Factory: func(id string) (Host, error) {
		ph := &parkingHome{}
		mu.Lock()
		homes[id] = ph
		mu.Unlock()
		return ph, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := h.Admit("resident"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	resident := homes["resident"]
	mu.Unlock()
	resident.parked.Store(1)
	resident.token.Store("tok-drain")

	// A connection that stays open keeps Drain spinning: its HandleConn
	// blocks reading the byte we deliberately withhold.
	held, heldServer := net.Pipe()
	heldDone := make(chan error, 1)
	go func() { heldDone <- h.Route("resident", heldServer) }()
	deadline := time.Now().Add(2 * time.Second)
	for h.Connections() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("held connection never pinned")
		}
		time.Sleep(time.Millisecond)
	}

	drainDone := make(chan error, 1)
	go func() { drainDone <- h.Drain(5 * time.Second) }()
	// Drain sets the flag before it waits; poll with fresh ids until an
	// admission observes it (an id that slips in pre-flag would otherwise
	// satisfy every later lookup from the fast path).
	slipped := 0
	for i := 0; ; i++ {
		_, err := h.Admit(fmt.Sprintf("newcomer-%d", i))
		if errors.Is(err, ErrDraining) {
			break
		}
		if err == nil {
			slipped++ // admitted before the flag landed
		}
		if time.Now().After(deadline) {
			t.Fatal("admission never saw the draining flag")
		}
		time.Sleep(time.Millisecond)
	}

	// Resident homes still route mid-drain.
	c1, s1 := net.Pipe()
	done1 := make(chan error, 1)
	go func() { done1 <- h.Route("resident", s1) }()
	c1.Write([]byte{5})
	buf := make([]byte, 1)
	if _, err := c1.Read(buf); err != nil || buf[0] != 5 {
		t.Fatalf("resident route mid-drain: %v %x", err, buf)
	}
	c1.Close()
	if err := <-done1; err != nil {
		t.Fatalf("mid-drain route: %v", err)
	}

	// A token resume lands mid-drain.
	c2, s2 := net.Pipe()
	done2 := make(chan error, 1)
	go func() { done2 <- h.ServeConn(s2) }()
	if err := WritePreambleToken(c2, TokenHome, "tok-drain"); err != nil {
		t.Fatal(err)
	}
	c2.Write([]byte{6})
	if _, err := c2.Read(buf); err != nil || buf[0] != 6 {
		t.Fatalf("token resume mid-drain: %v %x", err, buf)
	}
	c2.Close()
	if err := <-done2; err != nil {
		t.Fatalf("mid-drain token resume: %v", err)
	}

	// Releasing the held connection lets the drain finish clean.
	held.Close()
	<-heldDone
	if err := <-drainDone; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := reg.Counter("hub_admissions_total").Value(); got != int64(1+slipped) {
		t.Fatalf("admissions = %d, want %d (resident + pre-flag stragglers)", got, 1+slipped)
	}
	// The flag outlives the wait: a post-drain newcomer is still refused.
	if _, err := h.Admit("late-newcomer"); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain admission: %v, want ErrDraining", err)
	}
}

func TestTokenRoutingFindsParkingHome(t *testing.T) {
	reg := metrics.NewRegistry()
	homes := map[string]*parkingHome{}
	h, err := New(Options{Metrics: reg, Factory: func(id string) (Host, error) {
		ph := &parkingHome{}
		homes[id] = ph
		return ph, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for _, id := range []string{"home-a", "home-b", "home-c"} {
		if _, err := h.Admit(id); err != nil {
			t.Fatal(err)
		}
	}
	homes["home-b"].parked.Store(1)
	homes["home-b"].token.Store("tok-42")

	// A TokenHome preamble lands on the home parking the session.
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- h.ServeConn(server) }()
	if err := WritePreambleToken(client, TokenHome, "tok-42"); err != nil {
		t.Fatal(err)
	}
	client.Write([]byte{9})
	buf := make([]byte, 1)
	if _, err := client.Read(buf); err != nil || buf[0] != 9 {
		t.Fatalf("echo through token routing: %v %x", err, buf)
	}
	client.Close()
	<-done
	if got := homes["home-b"].served.Load(); got != 1 {
		t.Fatalf("owner served %d, want 1", got)
	}
	if got := reg.Counter("hub_token_routes_total").Value(); got != 1 {
		t.Fatalf("hub_token_routes_total = %d, want 1", got)
	}

	// An unknown token is rejected without admitting anything.
	client2, server2 := net.Pipe()
	done2 := make(chan error, 1)
	go func() { done2 <- h.ServeConn(server2) }()
	if err := WritePreambleToken(client2, TokenHome, "no-such"); err != nil {
		t.Fatal(err)
	}
	if err := <-done2; !errors.Is(err, ErrUnknownHome) {
		t.Fatalf("unknown token: %v, want ErrUnknownHome", err)
	}
	client2.Close()
	if got := reg.Counter("hub_token_route_misses_total").Value(); got != 1 {
		t.Fatalf("hub_token_route_misses_total = %d, want 1", got)
	}
}
