package core

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// DialFunc produces a fresh transport to the UniInt server.
type DialFunc func() (net.Conn, error)

// Supervisor keeps a universal-interaction session alive across transport
// failures: it remembers the attached devices and the current selection,
// and when the proxy's connection dies it redials, rebuilds the proxy,
// re-attaches every device (each re-transmits its plug-in module) and
// restores the selection. The user's devices keep working; at worst they
// miss the frames sent while the link was down.
//
// Reconnects are resume-aware: the supervisor carries the session token
// the server issued and presents it on every redial. When the server
// still holds the parked session (uniserver's detach lot), the rebuilt
// proxy adopts the previous connection's shadow framebuffer and demands
// only an incremental update — the resync carries just the damage
// accumulated while the link was down, not a full repaint.
//
// The paper's user roams between home, office and public spaces; session
// continuity across links is the practical face of "control appliances in
// a uniform way at any places".
type Supervisor struct {
	dial    DialFunc
	backoff time.Duration

	mu      sync.Mutex
	proxy   *Proxy
	inputs  []InputDevice
	outputs []OutputDevice
	selIn   string
	selOut  string
	token   string // resume token presented on the next redial
	closed  bool

	stop chan struct{}
	done chan struct{}

	reconnects atomic.Int64
	resumes    atomic.Int64
	lastErr    atomic.Value // errBox
}

// errBox wraps errors for atomic.Value, which requires every store to
// carry the same concrete type (connection errors do not).
type errBox struct{ err error }

// SupervisorOption configures a Supervisor.
type SupervisorOption func(*Supervisor)

// WithBackoff sets the delay before the 2nd, 3rd, … redial attempt
// (default 10 ms — in-process transports recover instantly; real
// deployments pass larger values). The first redial after a link dies is
// immediate: back-off is for failure, and a dead link is not one yet.
func WithBackoff(d time.Duration) SupervisorOption {
	return func(s *Supervisor) { s.backoff = d }
}

// NewSupervisor dials the first connection and starts supervising.
func NewSupervisor(dial DialFunc, opts ...SupervisorOption) (*Supervisor, error) {
	s := &Supervisor{
		dial:    dial,
		backoff: 10 * time.Millisecond,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	proxy, err := s.connect()
	if err != nil {
		return nil, err
	}
	s.proxy = proxy
	s.token = proxy.SessionToken()
	go s.supervise()
	return s, nil
}

func (s *Supervisor) connect() (*Proxy, error) {
	conn, err := s.dial()
	if err != nil {
		return nil, fmt.Errorf("core: supervisor dial: %w", err)
	}
	s.mu.Lock()
	token := s.token
	s.mu.Unlock()
	return DialResume(conn, token)
}

// Proxy returns the currently live proxy. The pointer changes across
// reconnects; callers needing stability should go through the Supervisor's
// own device/selection methods.
func (s *Supervisor) Proxy() *Proxy {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.proxy
}

// Reconnects reports how many times the session has been re-established.
func (s *Supervisor) Reconnects() int64 { return s.reconnects.Load() }

// Resumes reports how many reconnects reclaimed the parked server-side
// session (incremental resync) rather than rejoining cold.
func (s *Supervisor) Resumes() int64 { return s.resumes.Load() }

// LastError returns the most recent connection error (nil before any).
func (s *Supervisor) LastError() error {
	if v := s.lastErr.Load(); v != nil {
		return v.(errBox).err
	}
	return nil
}

func (s *Supervisor) setErr(err error) { s.lastErr.Store(errBox{err}) }

// AttachInput attaches the device now and on every future reconnect.
func (s *Supervisor) AttachInput(d InputDevice) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrProxyClosed
	}
	if err := s.proxy.AttachInput(d); err != nil {
		return err
	}
	s.inputs = append(s.inputs, d)
	return nil
}

// AttachOutput attaches the device now and on every future reconnect.
func (s *Supervisor) AttachOutput(d OutputDevice) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrProxyClosed
	}
	if err := s.proxy.AttachOutput(d); err != nil {
		return err
	}
	s.outputs = append(s.outputs, d)
	return nil
}

// SelectInput selects the device and remembers the choice across
// reconnects.
func (s *Supervisor) SelectInput(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.proxy.SelectInput(id); err != nil {
		return err
	}
	s.selIn = id
	return nil
}

// SelectOutput selects the device and remembers the choice across
// reconnects.
func (s *Supervisor) SelectOutput(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.proxy.SelectOutput(id); err != nil {
		return err
	}
	s.selOut = id
	return nil
}

// SelectInputByClass implements situation.Selector against the supervised
// session.
func (s *Supervisor) SelectInputByClass(class string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.proxy.SelectInputByClass(class); err != nil {
		return err
	}
	s.selIn = s.proxy.ActiveInput()
	return nil
}

// SelectOutputByClass implements situation.Selector.
func (s *Supervisor) SelectOutputByClass(class string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.proxy.SelectOutputByClass(class); err != nil {
		return err
	}
	s.selOut = s.proxy.ActiveOutput()
	return nil
}

// Close stops supervising and tears the live session down.
func (s *Supervisor) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return
	}
	s.closed = true
	proxy := s.proxy
	s.mu.Unlock()
	close(s.stop)
	proxy.Close()
	<-s.done
}

// supervise runs the proxy, rebuilding the session whenever it fails.
func (s *Supervisor) supervise() {
	defer close(s.done)
	for {
		s.mu.Lock()
		proxy := s.proxy
		s.mu.Unlock()

		err := proxy.Run() // blocks for the life of the connection
		s.setErr(err)
		proxy.Close()

		select {
		case <-s.stop:
			return
		default:
		}

		// Redial until it works or Close says stop: at once the first time,
		// after the back-off whenever an attempt (dial, handshake or
		// restore) has just failed.
		for failed := false; ; failed = true {
			if failed {
				select {
				case <-s.stop:
					return
				case <-time.After(s.backoff):
				}
			}
			next, err := s.connect()
			if err == nil {
				if rerr := s.restore(next); rerr != nil {
					s.setErr(rerr)
					next.Close()
					continue
				}
				s.reconnects.Add(1)
				if next.Resumed() {
					s.resumes.Add(1)
				}
				break
			}
			s.setErr(err)
		}
	}
}

// restore re-attaches devices and re-applies the selection to a fresh
// proxy, then installs it. Restoration is all-or-nothing: a failure
// leaves the supervisor's remembered state and installed proxy untouched
// (the caller discards next and redials), so a connection dying
// mid-restore can never half-apply selections.
//
// On a resumed connection the server preserved the whole session, so the
// new proxy adopts the previous connection's shadow framebuffer and the
// output selection is restored with an incremental request — the resync
// carries only the damage accumulated while detached.
func (s *Supervisor) restore(next *Proxy) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("core: supervisor closed during restore")
	}
	for _, d := range s.inputs {
		if err := next.AttachInput(d); err != nil {
			return err
		}
	}
	for _, d := range s.outputs {
		if err := next.AttachOutput(d); err != nil {
			return err
		}
	}
	if s.selIn != "" {
		if err := next.SelectInput(s.selIn); err != nil {
			return err
		}
	}
	resumed := next.Resumed()
	if s.selOut != "" {
		if err := next.restoreOutput(s.selOut, resumed); err != nil {
			return err
		}
	}
	if resumed {
		// Last, once nothing can fail: adoption takes the old connection's
		// framebuffer, which a retry would need again. (next decodes no
		// update before the caller runs it.)
		next.Client().AdoptShadow(s.proxy.Client())
	}
	s.proxy = next
	s.token = next.SessionToken()
	return nil
}
