// Package uniint is the public facade of the universal-interaction
// reproduction (Nakajima & Hasegawa, "Universal Interaction with Networked
// Home Appliances", ICDCS 2002).
//
// A Session assembles the paper's complete pipeline in one process:
//
//	appliances ── HAVi middleware ── home application ── toolkit display
//	     │                                                     │
//	     └──────────── events                         UniInt server
//	                                                        │ universal
//	                                                        │ interaction
//	                                                        │ protocol
//	                                                  UniInt proxy
//	                                                        │
//	              PDA / phone / TV / voice / gesture / remote devices
//
// The subsystem packages live under internal/; this package wires them and
// re-exports the types a downstream application touches.
package uniint

import (
	"fmt"
	"net"
	"sync"

	"uniint/internal/appliance"
	"uniint/internal/core"
	"uniint/internal/homeapp"
	"uniint/internal/rfb"
	"uniint/internal/toolkit"
	"uniint/internal/uniserver"
)

// TileCache is the shared content-addressed store of encoded tile bodies
// behind the wire-efficiency tier. Create one with NewTileCache and pass
// it through Options.Tiles to every session (the hub factory does) so the
// Nth identical home's widget bodies encode once and later sessions ship
// 8-byte references.
type TileCache = rfb.TileCache

// NewTileCache returns a tile store bounded by budget bytes of encoded
// bodies; budget <= 0 selects the default (rfb.DefaultTileCacheBudget).
func NewTileCache(budget int64) *TileCache { return rfb.NewTileCache(budget) }

// DefaultWidth and DefaultHeight are the served desktop geometry used when
// Options leaves them zero — the 640×480 surface of an era display.
const (
	DefaultWidth  = 640
	DefaultHeight = 480
)

// Options configures a Session. It is the single user-facing
// configuration surface of the stack. The session lifecycle is not among
// it: a disconnected session always parks for resume under
// uniserver.DefaultParkTTL and uniserver.DefaultParkCapacity. Nor is the
// worker pool: every session in the process runs its turns on
// sched.SharedPool.
type Options struct {
	// Width, Height set the desktop geometry (defaults 640×480).
	Width, Height int
	// Name is the desktop name announced by the UniInt server.
	Name string
	// Appliances are attached to the home network before the GUI is
	// first generated. More can be added later via Session.Home.
	Appliances []appliance.Appliance
	// Tiles is the tile store this session's server publishes encoded
	// tiles and memoised full-frame bands to (see TileCache), shared with
	// other sessions that are passed the same one. Nil gives the server a
	// store of its own, shared only by its own connections.
	Tiles *TileCache
}

// Session is a fully wired universal-interaction stack: the hosted home
// production runs (HubSession) and the production client, a core.Connect
// proxy, whose every link is an in-process pipe attached to the home's
// server. A link that drops resumes its parked session, as a roaming
// device's would.
type Session struct {
	*HubSession
	// Proxy is the UniInt proxy (the paper's contribution).
	Proxy *core.Proxy

	attached sync.WaitGroup // the server side of every link; Close joins it
}

// NewSessionForHub assembles the server side of the stack for hub
// hosting: appliances on a fresh middleware network, the composed-GUI
// application and the exporting server, without a proxy. Proxies connect
// through the hub's routing path (Attach); any number may share the
// home's display session concurrently.
func NewSessionForHub(opts Options) (*HubSession, error) {
	if opts.Width <= 0 {
		opts.Width = DefaultWidth
	}
	if opts.Height <= 0 {
		opts.Height = DefaultHeight
	}
	if opts.Name == "" {
		opts.Name = "universal interaction"
	}

	home := appliance.NewHome()
	for _, a := range opts.Appliances {
		if _, err := home.Add(a); err != nil {
			home.Close()
			return nil, fmt.Errorf("uniint: attach %s: %w", a.Name(), err)
		}
	}
	home.Network().WaitIdle()
	display := toolkit.NewDisplay(opts.Width, opts.Height)
	return &HubSession{
		Home:    home,
		Display: display,
		App:     homeapp.New(home.Network(), display),
		Server:  uniserver.New(display, opts.Name, opts.Tiles),
	}, nil
}

// NewSession assembles and starts the full stack and connects its proxy;
// attach interaction devices with Session.Proxy.AttachInput/AttachOutput
// and select them to begin.
func NewSession(opts Options) (*Session, error) {
	hs, err := NewSessionForHub(opts)
	if err != nil {
		return nil, err
	}
	s := &Session{HubSession: hs}
	s.Proxy, err = core.Connect(func() (net.Conn, error) {
		sc, cc := net.Pipe() // the home's server attaches the far end
		s.attached.Add(1)
		go func() {
			defer s.attached.Done()
			_ = s.Attach(sc)
		}()
		return cc, nil
	})
	if err != nil {
		s.attached.Wait() // the failed handshake closed the pipe
		hs.Close()
		return nil, fmt.Errorf("uniint: connect proxy: %w", err)
	}
	return s, nil
}

// Close tears the whole stack down in dependency order: the proxy (and its
// redialing) first, then every link's server side, then the home. It
// returns once everything the session started has returned.
func (s *Session) Close() {
	s.Proxy.Close()
	s.attached.Wait()
	s.HubSession.Close()
}

// HubSession is the server side of a Session: the appliances →
// middleware → application → server stack, which the multi-home hub
// (internal/hub) hosts many of in one process. The embedded server's own
// methods implement hub.Host; only Close is widened, to take the whole
// stack down.
type HubSession struct {
	// Home is the appliance household (HAVi network + simulators).
	Home *appliance.Home
	// Display is the window-system session the application renders into.
	Display *toolkit.Display
	// App is the home appliance application (composed control panels).
	App *homeapp.App
	// Server is the UniInt server exporting Display to routed proxies.
	*uniserver.Server
}

// Close tears the stack down in dependency order (the server's shutdown
// disconnects live connections); like each part's Close, it is idempotent.
func (s *HubSession) Close() {
	s.Server.Close()
	s.App.Close()
	s.Home.Close()
}

// WaitIdle blocks until the middleware has delivered all queued events
// (appliance → GUI propagation); frames wait on the devices' WaitFrames.
func (s *HubSession) WaitIdle() { s.Home.Network().WaitIdle() }
