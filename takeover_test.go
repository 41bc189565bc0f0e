package uniint

// Takeover through the routers: a resume token presented while its
// session is still connected must resume it on every path a redial can
// take — the hub's `~ <token>` route, the federation's token scan — and a
// client that redials the instant its link closes, before the server has
// noticed, must never lose the race.

import (
	"net"
	"testing"
	"time"

	"uniint/internal/gfx"
	"uniint/internal/hub"
	"uniint/internal/metrics"
	"uniint/internal/rfb"
	"uniint/internal/toolkit"
	"uniint/internal/uniserver"
)

// nopHandler is a client that only keeps its shadow.
type nopHandler struct{}

func (nopHandler) Updated([]gfx.Rect) {}
func (nopHandler) Bell()              {}
func (nopHandler) CutText(string)     {}

// dialRouted connects a protocol client through serve (a router's
// ServeConn) with preamble p, continuing prev's session (nil: a fresh
// one), and runs its read loop; done closes when the loop returns.
func dialRouted(t *testing.T, serve func(net.Conn) error, p hub.Preamble, prev *rfb.ClientConn) (*rfb.ClientConn, chan struct{}) {
	t.Helper()
	sc, cc := net.Pipe()
	go serve(sc)
	if _, err := p.WriteTo(cc); err != nil {
		t.Fatal(err)
	}
	client, err := rfb.DialResume(cc, prev)
	if err != nil {
		t.Fatalf("dial %v: %v", p, err)
	}
	done := make(chan struct{})
	go func() { client.Run(nopHandler{}); close(done) }()
	return client, done
}

func TestTakeoverThroughRouters(t *testing.T) {
	const homeID = "takeover-home"
	routers := map[string]func(*testing.T, hub.Host, *metrics.Registry) func(net.Conn) error{
		"hub": func(t *testing.T, host hub.Host, reg *metrics.Registry) func(net.Conn) error {
			h, err := hub.New(hub.Options{
				Factory: func(string) (hub.Host, error) { return host, nil },
				Metrics: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(h.Close)
			return h.ServeConn
		},
		"fed-2-nodes": func(t *testing.T, host hub.Host, reg *metrics.Registry) func(net.Conn) error {
			return newFedCluster(t, host, reg, "alpha", "beta").ServeConn
		},
	}
	for name, build := range routers {
		t.Run(name, func(t *testing.T) {
			st := newResumeDisplay(t, nil)
			reg := metrics.NewRegistry()
			serve := build(t, st.srv, reg)
			takeovers0 := metrics.Default().Counter("session_takeover_total").Value()
			full := gfx.R(0, 0, 320, 240)
			converged := func(c *rfb.ClientConn) func() bool {
				return func() bool { return st.shows(c.Snapshot(full)) }
			}

			// A joins by home name, paints, and never closes its link.
			a, aDone := dialRouted(t, serve, hub.Preamble{HomeID: homeID}, nil)
			if err := a.RequestUpdate(false, full); err != nil {
				t.Fatal(err)
			}
			waitCond(t, "A painted", converged(a))
			st.display.Update(func() { st.lbl.SetText("taken over") })

			// B knows only the token: the router must find the session
			// although no lot holds it yet.
			b, _ := dialRouted(t, serve, hub.Preamble{HomeID: hub.TokenHome, Token: a.Token()}, a)
			defer b.Close()
			if !b.Resumed() || b.Token() != a.Token() {
				t.Fatalf("token route to a live session: resumed=%v token=%q, want A's %q", b.Resumed(), b.Token(), a.Token())
			}
			select {
			case <-aDone: // the server closed A's link
			case <-time.After(2 * time.Second):
				t.Fatal("A's link still up after the takeover")
			}
			for _, c := range []string{"hub_token_route_misses_total", "fed_route_misses_total"} {
				if got := reg.Counter(c).Value(); got != 0 {
					t.Errorf("%s = %d, want 0", c, got)
				}
			}
			if d := metrics.Default().Counter("session_takeover_total").Value() - takeovers0; d != 1 {
				t.Errorf("session_takeover_total delta = %d, want 1", d)
			}

			// B builds on A's pixels; only the label's damage crosses.
			before := b.BytesReceived()
			if err := b.RequestUpdate(true, full); err != nil {
				t.Fatal(err)
			}
			waitCond(t, "B converged on the display", converged(b))
			if got := b.BytesReceived() - before; got >= int64(full.Area()) {
				t.Errorf("resync after takeover shipped %d bytes: a full repaint", got)
			}
		})
	}
}

// TestResumeHammerZeroDelayRedial: a client over loopback TCP closes its
// link and redials through the federation's token route with no delay at
// all, 500 times. The server has usually not read the EOF yet, so nearly
// every redial names a session that is still live; every one must resume.
// (Before takeover the token route refused most of these outright.)
func TestResumeHammerZeroDelayRedial(t *testing.T) {
	const cycles = 500
	srv := uniserver.New(toolkit.NewDisplay(64, 48), "hammer-home", nil)
	reg := metrics.NewRegistry()
	cluster := newFedCluster(t, srv, reg, "alpha", "beta")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() { cluster.Serve(ln); close(served) }()
	defer func() { ln.Close(); <-served }()
	misses0 := metrics.Default().Counter("session_resume_miss_total").Value()
	resumed0 := metrics.Default().Counter("session_resumed_total").Value()

	// dial joins the home, or with prev routes by prev's token and
	// continues its session.
	dial := func(prev *rfb.ClientConn) *rfb.ClientConn {
		p := hub.Preamble{HomeID: "hammer-home"}
		if prev != nil {
			p = hub.Preamble{HomeID: hub.TokenHome, Token: prev.Token()}
		}
		conn, err := hub.DialHomeToken(ln.Addr().String(), p.HomeID, p.Token)
		if err != nil {
			t.Fatal(err)
		}
		client, err := rfb.DialResume(conn, prev)
		if err != nil {
			t.Fatalf("dial %v: %v", p, err)
		}
		return client
	}
	client := dial(nil)
	resumes := 0
	for i := 0; i < cycles; i++ {
		token := client.Token()
		client.Close()
		client = dial(client)
		if client.Resumed() && client.Token() == token {
			resumes++
		}
	}
	client.Close()
	if resumes != cycles {
		t.Errorf("%d of %d zero-delay redials resumed", resumes, cycles)
	}
	if d := metrics.Default().Counter("session_resume_miss_total").Value() - misses0; d != 0 {
		t.Errorf("session_resume_miss_total delta = %d, want 0", d)
	}
	if got := reg.Counter("fed_route_misses_total").Value(); got != 0 {
		t.Errorf("fed_route_misses_total = %d, want 0", got)
	}
	// The server counts a resume when it registers the session, after the
	// handshake reply the client has already acted on: wait for the last.
	waitCond(t, "the server to count every resume", func() bool {
		return metrics.Default().Counter("session_resumed_total").Value()-resumed0 >= cycles
	})
	waitCond(t, "last session parked", func() bool { return srv.Parked() == 1 && srv.Sessions() == 0 })
	if d := metrics.Default().Counter("session_resumed_total").Value() - resumed0; d != cycles {
		t.Errorf("session_resumed_total delta = %d, want %d", d, cycles)
	}
}
