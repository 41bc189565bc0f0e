package fed

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"uniint/internal/hub"
	"uniint/internal/metrics"
	"uniint/internal/rfb"
)

func TestRingOwnerCoversAndBalances(t *testing.T) {
	nodes := []string{"alpha", "beta", "gamma", "delta"}
	r := NewRing(nodes...)
	counts := map[string]int{}
	const homes = 4000
	for i := 0; i < homes; i++ {
		owner, ok := r.Owner(fmt.Sprintf("home-%04d", i))
		if !ok {
			t.Fatalf("home-%04d unowned", i)
		}
		counts[owner]++
	}
	for _, n := range nodes {
		got := counts[n]
		if got < homes/len(nodes)/2 || got > homes/len(nodes)*2 {
			t.Errorf("node %s owns %d of %d homes — rendezvous badly skewed", n, got, homes)
		}
	}
}

// Rendezvous property: removing a node relocates ONLY the homes that
// node owned; everything else keeps its owner.
func TestRingMinimalDisruption(t *testing.T) {
	full := NewRing("alpha", "beta", "gamma")
	smaller := full.Without("beta")
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("home-%04d", i)
		before, _ := full.Owner(id)
		after, _ := smaller.Owner(id)
		if before != "beta" && after != before {
			t.Fatalf("%s moved %s→%s though beta never owned it", id, before, after)
		}
		if before == "beta" && after == "beta" {
			t.Fatalf("%s still owned by removed node", id)
		}
	}
	if back := smaller.With("beta"); back.Len() != 3 {
		t.Fatalf("With after Without: %d nodes", back.Len())
	}
}

// stubHost is a minimal hub.Host whose detach lot is a map of shipped
// migration records — enough to exercise the cluster's route and
// migrate paths without a full session stack.
type stubHost struct {
	node string // which factory built it (routing assertions)
	id   string

	mu     sync.Mutex
	parked map[string]*rfb.MigrationRecord
	closed bool
}

func (s *stubHost) Attach(conn net.Conn) error {
	defer conn.Close()
	fmt.Fprintf(conn, "%s/%s\n", s.node, s.id)
	return nil
}
func (s *stubHost) Parked() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.parked)
}
func (s *stubHost) HasParked(token string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.parked[token]
	return ok
}
func (s *stubHost) ParkedTokens() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.parked))
	for tok := range s.parked {
		out = append(out, tok)
	}
	return out
}
func (s *stubHost) ExportParked(token string) (*rfb.MigrationRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.parked[token]
	if ok {
		delete(s.parked, token)
	}
	return rec, ok
}
func (s *stubHost) ImportParked(rec *rfb.MigrationRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.parked == nil {
		s.parked = make(map[string]*rfb.MigrationRecord)
	}
	s.parked[rec.Token] = rec
	return nil
}
func (s *stubHost) DetachSessions(time.Duration) error { return nil }
func (s *stubHost) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

func stubHub(t *testing.T, node string, reg *metrics.Registry) *hub.Hub {
	t.Helper()
	h, err := hub.New(hub.Options{
		Factory: func(id string) (hub.Host, error) {
			return &stubHost{node: node, id: id, parked: map[string]*rfb.MigrationRecord{}}, nil
		},
		Metrics: reg,
	})
	if err != nil {
		t.Fatalf("hub.New(%s): %v", node, err)
	}
	return h
}

func TestClusterRoutesByRing(t *testing.T) {
	mreg := metrics.NewRegistry()
	c := NewCluster(Options{Metrics: mreg})
	hubs := map[string]*hub.Hub{}
	for _, n := range []string{"alpha", "beta"} {
		hubs[n] = stubHub(t, n, mreg)
		if err := c.AddNode(n, hubs[n]); err != nil {
			t.Fatalf("AddNode(%s): %v", n, err)
		}
		defer hubs[n].Close()
	}
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("home-%d", i)
		owner, ok := c.Owner(id)
		if !ok {
			t.Fatalf("no owner for %s", id)
		}
		client, server := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- c.ServeConn(server) }()
		if err := hub.WritePreamble(client, id); err != nil {
			t.Fatalf("preamble: %v", err)
		}
		line, err := bufio.NewReader(client).ReadString('\n')
		if err != nil {
			t.Fatalf("read reply: %v", err)
		}
		want := fmt.Sprintf("%s/%s\n", owner, id)
		if line != want {
			t.Fatalf("connection for %s served by %q, ring says %q", id, line, want)
		}
		client.Close()
		if err := <-done; err != nil {
			t.Fatalf("ServeConn: %v", err)
		}
	}
	if got := mreg.Counter("fed_routes_total").Value(); got != 8 {
		t.Fatalf("fed_routes_total = %d, want 8", got)
	}
}

func TestClusterDrainMigratesParked(t *testing.T) {
	mreg := metrics.NewRegistry()
	c := NewCluster(Options{Metrics: mreg})
	ha, hb := stubHub(t, "alpha", mreg), stubHub(t, "beta", mreg)
	defer ha.Close()
	defer hb.Close()
	if err := c.AddNode("alpha", ha); err != nil {
		t.Fatal(err)
	}

	const homeID = "kitchen"
	host, err := ha.Admit(homeID)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	src := host.(*stubHost)
	rec := &rfb.MigrationRecord{Token: "feedface00000000deadbeef", W: 64, H: 48,
		RemainingTTL: 30 * time.Second}
	if err := host.ImportParked(rec); err != nil {
		t.Fatalf("seed park: %v", err)
	}

	if err := c.AddNode("beta", hb); err != nil {
		t.Fatalf("AddNode(beta): %v", err)
	}
	if err := c.Drain("alpha"); err != nil {
		t.Fatalf("Drain(alpha): %v", err)
	}

	// The home and its parked session now live on beta, alpha's copy is
	// closed, and the router only knows beta.
	moved, err := hb.Get(homeID)
	if err != nil {
		t.Fatalf("home did not arrive on beta: %v", err)
	}
	if !moved.HasParked(rec.Token) {
		t.Fatal("parked session did not migrate")
	}
	if got := moved.(*stubHost).node; got != "beta" {
		t.Fatalf("migrated home hosted by %q", got)
	}
	if _, err := ha.Get(homeID); err == nil {
		t.Fatal("source hub still hosts the home")
	}
	src.mu.Lock()
	closed := src.closed
	src.mu.Unlock()
	if !closed {
		t.Fatal("evacuated source host not closed")
	}
	if owner, ok := c.Owner(homeID); !ok || owner != "beta" {
		t.Fatalf("post-drain owner = %q, %v", owner, ok)
	}
	if got := mreg.Counter("fed_migrations_total").Value(); got < 1 {
		t.Fatalf("fed_migrations_total = %d", got)
	}
	if got := mreg.Counter("fed_migration_bytes_total").Value(); got <= 0 {
		t.Fatalf("fed_migration_bytes_total = %d", got)
	}
	// Token routing finds the migrated session through the front router.
	if n := c.findToken(rec.Token); n == nil || n.Name != "beta" {
		t.Fatalf("findToken routed to %v", n)
	}
}

func TestClusterRejectsDuplicateAndUnknown(t *testing.T) {
	mreg := metrics.NewRegistry()
	c := NewCluster(Options{Metrics: mreg})
	h := stubHub(t, "solo", mreg)
	defer h.Close()
	if err := c.AddNode("solo", h); err != nil {
		t.Fatal(err)
	}
	if err := c.AddNode("solo", h); err == nil {
		t.Fatal("duplicate AddNode accepted")
	}
	if err := c.Drain("ghost"); err == nil {
		t.Fatal("Drain of unknown node accepted")
	}
	if err := c.MigrateHome("home", "solo", "ghost"); err == nil {
		t.Fatal("MigrateHome to unknown node accepted")
	}
}
