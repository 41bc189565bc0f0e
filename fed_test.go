package uniint

// Federation end-to-end test (ISSUE 10 acceptance): a seeded run loses
// its link mid-interaction, the session parks, and — while the client is
// still away — the federation drains the hub node
// that owns the home, live-migrating the parked session (serialized
// through the UNIMIG/2 record) to the surviving node. The client
// redials through the front router with nothing but the home-id
// preamble, lands on the survivor, resumes with an incremental resync
// strictly smaller than its cold join, and finishes byte-identical to an
// uninterrupted control run.

import (
	"math/rand"
	"net"
	"testing"

	"uniint/internal/fed"
	"uniint/internal/gfx"
	"uniint/internal/hub"
	"uniint/internal/metrics"
)

// fedFixture fronts one resumeStack home with a hub-of-hubs cluster of
// the given member names. Every member's hub shares a memoized factory
// returning the same underlying server: the appliance network lives in
// the house, hub nodes are stateless session fronts, and migration moves
// only session state — which is exactly what the byte-identity assertion
// pins down.
type fedFixture struct {
	st      *resumeStack
	cluster *fed.Cluster
	metrics *metrics.Registry
	homeID  string
}

func newFedFixture(t *testing.T, homeID string, nodes ...string) *fedFixture {
	t.Helper()
	fx := &fedFixture{
		st:      newResumeDisplay(t, nil),
		metrics: metrics.NewRegistry(),
		homeID:  homeID,
	}
	fx.cluster = newFedCluster(t, fx.st.srv, fx.metrics, nodes...)
	fx.st.connect(func(conn net.Conn) { _ = fx.cluster.ServeConn(conn) }, homeID)
	return fx
}

// newFedCluster builds a hub-of-hubs of the given member names whose every
// home is host, counting into reg.
func newFedCluster(t *testing.T, host hub.Host, reg *metrics.Registry, nodes ...string) *fed.Cluster {
	t.Helper()
	cluster := fed.NewCluster(fed.Options{Metrics: reg})
	for _, name := range nodes {
		h, err := hub.New(hub.Options{
			Factory: func(string) (hub.Host, error) { return host, nil },
			Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(h.Close)
		if err := cluster.AddNode(name, h); err != nil {
			t.Fatal(err)
		}
	}
	return cluster
}

func TestFederationLiveMigrationByteIdentical(t *testing.T) {
	const homeID, seed, presses = "fed-kitchen", 20260807, 24
	rng := rand.New(rand.NewSource(seed))
	dropAt := presses/4 + rng.Intn(presses/2) // mid-interaction, seeded

	counters := metrics.Default()
	migratedOut0 := counters.Counter("session_migrated_out_total").Value()
	migratedIn0 := counters.Counter("session_migrated_in_total").Value()

	// Control run: same interactions, same mid-session label mutation,
	// routed through a single-node federation, no failure, no migration.
	ctl := newFedFixture(t, homeID, "solo")
	ctl.st.awaitTraffic()
	ctl.st.settle()
	for i := 1; i <= presses; i++ {
		ctl.st.press(i)
		if i == dropAt {
			ctl.st.settle()
			ctl.st.display.Update(func() { ctl.st.lbl.SetText("away message") })
		}
	}
	ctl.st.settle()
	controlShadow := ctl.st.shadow()

	// Migrated run: two member nodes; the client stays away (st.away)
	// while the owner drains.
	fx := newFedFixture(t, homeID, "alpha", "beta")
	st := fx.st
	st.awaitTraffic()
	st.settle()
	for i := 1; i <= dropAt; i++ {
		st.press(i)
	}
	st.settle()
	raw0 := counters.Counter("rfb_encode_raw_bytes_total").Value()

	owner, ok := fx.cluster.Owner(homeID)
	if !ok {
		t.Fatal("no ring owner")
	}
	st.away()
	st.dropLink()
	// Detach-window damage lands while nobody is connected.
	st.display.Update(func() { st.lbl.SetText("away message") })
	waitCond(t, "session parked", func() bool { return st.srv.Parked() >= 1 })

	// Drain-for-deploy: the owner leaves the ring and its parked session
	// ships to the survivor before the client comes back.
	if err := fx.cluster.Drain(owner); err != nil {
		t.Fatalf("Drain(%s): %v", owner, err)
	}
	if got := fx.metrics.Counter("fed_migrations_total").Value(); got < 1 {
		t.Fatalf("fed_migrations_total = %d, want >= 1", got)
	}
	if got := fx.metrics.Counter("fed_migration_bytes_total").Value(); got <= 0 {
		t.Fatalf("fed_migration_bytes_total = %d, want > 0", got)
	}
	if after, _ := fx.cluster.Owner(homeID); after == owner {
		t.Fatalf("home still owned by drained node %s", owner)
	}

	st.back()
	waitCond(t, "reconnect", func() bool { return st.sup.Reconnects() == 1 })
	if got := st.sup.Resumes(); got != 1 {
		t.Fatalf("Resumes() = %d, want 1", got)
	}
	st.awaitTraffic() // the resync for the detach-window damage
	st.settle()

	// The resync was encoded for the connection that received it — no rect
	// of it Raw to a wire-tier client — although the session it resumed
	// arrived through a migration record.
	if d := counters.Counter("rfb_encode_raw_bytes_total").Value() - raw0; d != 0 {
		t.Errorf("resync shipped %d Raw bytes to a client that negotiated the wire tier", d)
	}

	for i := dropAt + 1; i <= presses; i++ {
		st.press(i)
	}
	st.settle()

	// Zero lost, zero duplicated semantic input events across the move.
	if got := st.clicks(); got != presses {
		t.Fatalf("clicks = %d, want exactly %d", got, presses)
	}

	// Byte-identical outcome: the resumed shadow matches the live display
	// and the uninterrupted control run, pixel for pixel, despite the
	// session having crossed nodes through the migration record.
	full := gfx.R(0, 0, 320, 240)
	if !st.shadow().Equal(st.display.Snapshot(full)) {
		t.Error("migrated shadow framebuffer diverged from the display")
	}
	if !st.shadow().Equal(controlShadow) {
		t.Error("migrated run not byte-identical to uninterrupted control run")
	}

	// The session crossed the serialization boundary exactly once.
	if d := counters.Counter("session_migrated_out_total").Value() - migratedOut0; d != 1 {
		t.Errorf("session_migrated_out_total delta = %d, want 1", d)
	}
	if d := counters.Counter("session_migrated_in_total").Value() - migratedIn0; d != 1 {
		t.Errorf("session_migrated_in_total delta = %d, want 1", d)
	}
}
