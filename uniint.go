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
	// Tiles, when non-nil, is the shared tile store this session's server
	// publishes encoded tiles to (see TileCache). Nil keeps tile reuse
	// within each connection.
	Tiles *TileCache
}

// Session is a fully wired universal-interaction stack.
type Session struct {
	// Home is the appliance household (HAVi network + simulators).
	Home *appliance.Home
	// Display is the window-system session the application renders into.
	Display *toolkit.Display
	// App is the home appliance application (composed control panels).
	App *homeapp.App
	// Server is the UniInt server exporting Display.
	Server *uniserver.Server
	// Proxy is the UniInt proxy (the paper's contribution).
	Proxy *core.Proxy

	closeOnce sync.Once
	serverErr chan error
	proxyErr  chan error
}

// assemble builds the server side of the stack shared by NewSession and
// NewSessionForHub: appliances on a fresh middleware network, the
// composed-GUI application and the exporting server.
func assemble(opts Options) (*appliance.Home, *toolkit.Display, *homeapp.App, *uniserver.Server, error) {
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
			return nil, nil, nil, nil, fmt.Errorf("uniint: attach %s: %w", a.Name(), err)
		}
	}
	home.Network().WaitIdle()

	display := toolkit.NewDisplay(opts.Width, opts.Height)
	app := homeapp.New(home.Network(), display)
	server := uniserver.New(display, opts.Name, opts.Tiles)
	return home, display, app, server, nil
}

// NewSession assembles and starts the full stack. The proxy is connected
// to the server over an in-process pipe; attach interaction devices with
// Session.Proxy.AttachInput/AttachOutput and select them to begin.
func NewSession(opts Options) (*Session, error) {
	home, display, app, server, err := assemble(opts)
	if err != nil {
		return nil, err
	}

	sc, cc := net.Pipe()
	serverErr := make(chan error, 1)
	go func() { serverErr <- server.Attach(sc) }()

	proxy, err := core.Dial(cc)
	if err != nil {
		app.Close()
		server.Close()
		home.Close()
		return nil, fmt.Errorf("uniint: connect proxy: %w", err)
	}
	proxyErr := make(chan error, 1)
	go func() { proxyErr <- proxy.Run() }()

	return &Session{
		Home:      home,
		Display:   display,
		App:       app,
		Server:    server,
		Proxy:     proxy,
		serverErr: serverErr,
		proxyErr:  proxyErr,
	}, nil
}

// Close tears the whole stack down in dependency order and waits for the
// connection goroutines to exit.
func (s *Session) Close() {
	s.closeOnce.Do(func() {
		s.Proxy.Close()
		s.Server.Close()
		<-s.proxyErr
		<-s.serverErr
		s.App.Close()
		s.Home.Close()
	})
}

// WaitIdle blocks until the middleware has delivered all queued events
// (appliance → GUI propagation). Protocol traffic is asynchronous; use
// the devices' WaitFrames helpers for display-side synchronization.
func (s *Session) WaitIdle() { s.Home.Network().WaitIdle() }

// HubSession is the hub-hosted variant of Session: the same appliances →
// middleware → application → server stack, but without the in-process
// proxy pipe — connections arrive from outside, routed by the multi-home
// hub (internal/hub), which hosts many HubSessions in one process. It
// implements the full hub.Host contract through the embedded server:
// connection serving (Attach), park-aware idle state (Parked/HasParked),
// session migration (ParkedTokens/ExportParked/ImportParked) and
// federation drain (DetachSessions) are the server's own methods; only
// teardown (Close) is widened here to take the whole stack down.
type HubSession struct {
	// Home is the appliance household (HAVi network + simulators).
	Home *appliance.Home
	// Display is the window-system session the application renders into.
	Display *toolkit.Display
	// App is the home appliance application (composed control panels).
	App *homeapp.App
	// Server is the UniInt server exporting Display to routed proxies.
	*uniserver.Server

	closeOnce sync.Once
}

// NewSessionForHub assembles the server side of the stack for hub
// hosting: everything NewSession builds except the proxy and its pipe.
// Proxies connect through the hub's routing path (Attach); any number
// may share the home's display session concurrently.
func NewSessionForHub(opts Options) (*HubSession, error) {
	home, display, app, server, err := assemble(opts)
	if err != nil {
		return nil, err
	}
	return &HubSession{
		Home:    home,
		Display: display,
		App:     app,
		Server:  server,
	}, nil
}

// Close tears the stack down in dependency order. Live connections are
// disconnected by the server shutdown.
func (s *HubSession) Close() {
	s.closeOnce.Do(func() {
		s.Server.Close()
		s.App.Close()
		s.Home.Close()
	})
}

// WaitIdle blocks until the middleware has delivered all queued events.
func (s *HubSession) WaitIdle() { s.Home.Network().WaitIdle() }
