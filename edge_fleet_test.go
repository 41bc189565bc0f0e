package uniint_test

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"uniint"
	"uniint/internal/hub"
	"uniint/internal/leakcheck"
	"uniint/internal/metrics"
	"uniint/internal/workload"
)

// TestHubThousandIdleEdgeSessions is the acceptance test for the budgeted
// event runtime: one hub hosting 1000 idle edge sessions across 10 homes
// on the process pool, with the process goroutine count independent of the
// session count. Every session is attached through hub.Route over a
// goroutine-free event pipe (workload.IdleFleet), so any per-session
// goroutine anywhere in the stack fails the bounded assertion.
func TestHubThousandIdleEdgeSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-session fleet")
	}
	leakcheck.Check(t, 0)
	const homes, sessions = 10, 1000

	h, err := hub.New(hub.Options{
		Factory: func(homeID string) (hub.Host, error) {
			return uniint.NewSessionForHub(uniint.Options{Width: 64, Height: 48, Name: homeID})
		},
		Metrics: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	// Build the households first: homes own legitimate goroutines
	// (middleware delivery, appliance simulators), and those must not be
	// charged to the per-session budget under test.
	ids := make([]string, homes)
	for i := range ids {
		ids[i] = fmt.Sprintf("home-%03d", i)
		if _, err := h.Admit(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	base := runtime.NumGoroutine()

	i := 0
	clients, err := workload.IdleFleet(sessions, func(conn net.Conn) error {
		id := ids[i%homes]
		i++
		return h.Route(id, conn)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Homes(); got != homes {
		t.Fatalf("Homes() = %d, want %d", got, homes)
	}
	if got := h.Connections(); got != int64(sessions) {
		t.Fatalf("Conns() = %d, want %d", got, sessions)
	}

	// The claim under test: 1000 idle sessions add no goroutines beyond
	// transient pool turns. The bound is a small constant over the
	// pre-fleet baseline — nothing proportional to the session count.
	leakcheck.Assert(t, base+8, "1k idle hub edge sessions")

	// Disconnect the fleet; every unpin must land so hub accounting
	// returns to zero and Close does not spin on phantom connections.
	for _, c := range clients {
		c.Close()
	}
	deadline := time.Now().Add(10 * time.Second)
	for h.Connections() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("Conns() = %d after fleet close", h.Connections())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestHubAttachEdgeErrors exercises Route's paths around a home that is
// only a ConnHandler: a blocking conn is served through the adapter and
// unpinned when the handler returns, and a closed hub refuses the attach
// and closes the conn.
func TestHubAttachEdgeErrors(t *testing.T) {
	home := &plainHome{}
	h, err := hub.New(hub.Options{
		Factory: func(string) (hub.Host, error) { return hub.AdaptConnHandler(home), nil },
		Metrics: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := net.Pipe()
	defer a.Close()
	if err := h.Route("x", b); err != nil {
		t.Fatalf("Route to an adapted home = %v", err)
	}
	if home.served != 1 || h.Connections() != 0 {
		t.Fatalf("served %d conns, %d still pinned", home.served, h.Connections())
	}
	h.Close()
	c, d := net.Pipe()
	if err := h.Route("x", d); err != hub.ErrClosed {
		t.Fatalf("Route on a closed hub = %v, want ErrClosed", err)
	}
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("refused conn not closed: read err %v", err)
	}
}

type plainHome struct{ served int }

func (p *plainHome) HandleConn(conn net.Conn) error { p.served++; conn.Close(); return nil }
func (*plainHome) Close()                           {}
