//go:build linux

package main

import (
	"bytes"
	"time"

	"uniint/internal/core"
	"uniint/internal/gfx"
)

// refCheck is what a load client hands the reference check: the home it is
// in, the framebuffer it holds, and how to build a screen that asks for
// the pixel format those pixels were painted in.
type refCheck struct {
	home      string
	got       *gfx.Framebuffer
	newScreen func() core.OutputDevice
	// devices, when set, are output probes whose latest frame must equal
	// their own conversion of the reference (switch).
	devices []*outProbe
}

// latestFramer is what every display simulator of internal/device offers.
type latestFramer interface{ Latest() core.Frame }

// verify runs the correctness checks of one window, outside the timed
// region. Findings go to r.problems; an error means the harness itself
// could not finish the check.
func (r *report) verify(s *session, w *window) error {
	with, err := s.hub.goroutines()
	if err != nil {
		return err
	}

	// The repo's byte-identical invariant, over TCP: every load client
	// holds exactly what a fresh client's full repaint of the same home
	// shows, once both are quiet.
	for i, c := range s.clients {
		if err := c.quiesce(); err != nil {
			return err
		}
		chk := c.reference()
		ref, err := referenceFrame(s.hub, chk)
		if err != nil {
			return err
		}
		if !chk.got.Equal(ref) {
			r.problem("client %d in %s: framebuffer differs from a fresh repaint in %v", i, chk.home, chk.got.DiffRect(ref))
		}
		for _, o := range chk.devices {
			want := o.OutputDevice.OutputPlugin().Convert(ref)
			if got := o.OutputDevice.(latestFramer).Latest(); !sameFrame(got, want) {
				r.problem("client %d: latest frame on %s is not the conversion of the reference", i, o.ID())
			}
		}
	}

	r.checkInput(w)

	// Close the clients and let their sessions park; what the hub's
	// goroutine count loses is what the sessions cost.
	for _, c := range s.clients {
		c.close()
	}
	after, err := s.settledHub()
	if err != nil {
		return err
	}
	without, err := s.hub.goroutines()
	if err != nil {
		return err
	}
	r.goroutinesPerSession = (with - without) / numClients
	r.rssPeakMB = s.hub.rssPeakMB()

	// Park accounting (internal/uniserver/lot.go) balances at rest.
	c, g := after.Counters, after.Gauges
	in := c["session_parked_total"] + c["session_migrated_in_total"]
	out := c["session_resumed_total"] + c["session_expired_total"] + c["session_migrated_out_total"] + g["session_parked"]
	if in != out {
		r.problem("park identity: parked+migrated_in = %d, resumed+expired+migrated_out+parked_now = %d", in, out)
	}
	return nil
}

// settledHub waits until the hub has no live session left and returns its
// counters.
func (s *session) settledHub() (hubSnapshot, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap, err := s.hub.snapshot()
		if err != nil {
			return snap, err
		}
		if snap.Gauges["server_sessions"] == 0 || time.Now().After(deadline) {
			return snap, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// referenceFrame connects a fresh client to the home, waits for its full
// repaint and returns its framebuffer.
func referenceFrame(h *hubProc, chk refCheck) (*gfx.Framebuffer, error) {
	l, err := dialLink(h, chk.home, false)
	if err != nil {
		return nil, err
	}
	defer l.close()
	screen := newOutProbe(chk.newScreen(), false)
	if err := l.proxy.AttachOutput(screen); err != nil {
		return nil, err
	}
	if err := firstFrame(l.proxy, screen); err != nil {
		return nil, err
	}
	if err := l.quiesce(); err != nil {
		return nil, err
	}
	return l.shadow(), nil
}

func sameFrame(a, b core.Frame) bool {
	switch {
	case a.RGB != nil && b.RGB != nil:
		return a.RGB.Equal(b.RGB)
	case a.Bits != nil && b.Bits != nil:
		return a.Bits.W == b.Bits.W && a.Bits.H == b.Bits.H && bytes.Equal(a.Bits.Bits, b.Bits.Bits)
	}
	return false
}

// checkInput is the semantic input accounting: what the scripts sent is
// what the hub's counters saw, nothing was dropped on either side, and
// every op of an unambiguous script produced exactly one update.
func (r *report) checkInput(w *window) {
	cl := w.client
	if got := w.counter("server_key_events_total"); got != float64(cl.keys) {
		r.problem("script sent %d key events, hub counted %.0f", cl.keys, got)
	}
	// Pointer events reach the hub less the moves the proxy coalesced.
	if got, want := w.counter("server_pointer_events_total"), float64(cl.pointers-cl.coalesced); got != want {
		r.problem("script sent %d pointer events (%d coalesced by the proxy), hub counted %.0f", cl.pointers, cl.coalesced, got)
	}
	if d := w.counter("input_dropped_total") + w.counter("input_abandoned_total"); d != 0 || cl.lost != 0 {
		r.problem("input lost: %.0f dropped or abandoned by the hub, %d by devices and proxy", d, cl.lost)
	}
	// Every queued event was dispatched or coalesced — or rides a parked
	// session: a key release the server read but had not dispatched when the
	// link dropped waits in the lot for a resume (or the TTL), uncounted
	// until then. At most one per session a cold join left behind.
	waiting := w.counter("input_queued_total") - w.counter("input_dispatched_total") - w.counter("input_coalesced_total")
	if waiting < 0 || waiting > float64(w.hubAfter.Gauges["session_parked"]) {
		r.problem("hub queued %.0f more input events than it dispatched or coalesced, with %d sessions parked",
			waiting, w.hubAfter.Gauges["session_parked"])
	}
	if want := r.updatesPerOp * int64(w.attempted()); want != 0 && cl.updates != want {
		r.problem("%d ops produced %d updates; the script must yield %d each", w.attempted(), cl.updates, r.updatesPerOp)
	}
	// Hops: two in three resume; a window cut mid-cycle shifts the share by
	// at most one hop per client. (No other workload reconnects: 0 and 0.)
	resumed, joined := len(w.gather(func(r *recorder) []int64 { return r.resumeNS })), len(w.gather(func(r *recorder) []int64 { return r.joinNS }))
	if lo, hi := 2*joined-2*numClients, 2*joined+2*numClients; resumed < lo || resumed > hi {
		r.problem("%d hops resumed and %d joined cold; want two resumes per join", resumed, joined)
	}
}
