//go:build linux

package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"uniint/internal/trace"
)

// numClients is the closed loop's client count: a constant, not derived
// from the machine (the reference box has two cores).
const numClients = 2

// setupsPerRun is how many times an untraced run sets up (child start →
// ready → connected → warm); setup_s is the median, the window runs on the
// last one.
const setupsPerRun = 3

// In a traced run the window is split: an untraced share (the base of
// trace.overhead_share) and a traced share; the layer replays use the rest.
const (
	tracedBaseShare = 0.3
	tracedShare     = 0.4
)

// quiet is how long a client must see no update before the harness reads
// its framebuffer or the hub's counters.
const quiet = 30 * time.Millisecond

type runConfig struct {
	workload    string
	seed        int64
	seconds     float64
	traced      bool
	hubBin      string
	traceOut    string
	replayCalls int
}

// driver is one workload: how its clients connect and warm up, what one op
// is, and what must hold afterwards.
type driver interface {
	// federated reports whether the hub runs with -peers.
	federated() bool
	// updatesPerOp is how many FramebufferUpdates each op of the script
	// must draw, or 0 when that depends on timing.
	updatesPerOp() int64
	// connect builds client i's proxy stack against the hub and warms it
	// up: first frames presented, scripts probed, caches warm.
	connect(h *hubProc, i int, cfg runConfig) (client, error)
}

// client is one closed-loop user.
type client interface {
	// op performs one operation and waits for its completion.
	op(rec *recorder)
	// counters reports what the client sent and received so far.
	counters() clientCounters
	// quiesce waits until the client's link has been quiet for a while.
	quiesce() error
	// reference says what the byte-identical check compares: the home the
	// client is in and the framebuffer it holds.
	reference() refCheck
	// close tears the client's link down.
	close()
}

// clientCounters are running totals read before and after a window.
type clientCounters struct {
	wireUp, wireDown int64 // bytes
	updates          int64 // FramebufferUpdates applied
	keys, pointers   int64 // universal events forwarded
	coalesced        int64 // pointer moves the proxy absorbed
	lost             int64 // device events dropped or forward errors
}

func (a clientCounters) sub(b clientCounters) clientCounters {
	return clientCounters{
		a.wireUp - b.wireUp, a.wireDown - b.wireDown, a.updates - b.updates,
		a.keys - b.keys, a.pointers - b.pointers, a.coalesced - b.coalesced, a.lost - b.lost,
	}
}

func (a clientCounters) add(b clientCounters) clientCounters {
	return clientCounters{
		a.wireUp + b.wireUp, a.wireDown + b.wireDown, a.updates + b.updates,
		a.keys + b.keys, a.pointers + b.pointers, a.coalesced + b.coalesced, a.lost + b.lost,
	}
}

// recorder collects one client's ops over one window. Only the client's
// own goroutine writes to it.
type recorder struct {
	timed     bool
	attempted int
	failed    int
	latNS     []int64 // completed ops
	// completed is len(latNS), published for the slice sampler.
	completed atomic.Int64
	// Harness spans of completed ops (traced windows only).
	injectNS, turnaroundNS, decodeNS, presentNS, connectNS []int64
	// roam: latency by what the hop turned out to be.
	resumeNS, joinNS []int64
	lateNS           []int64 // stylus: how late each pacing tick ran
}

func (r *recorder) fail() { r.attempted++; r.failed++ }

func (r *recorder) done(latNS int64) {
	r.attempted++
	r.latNS = append(r.latNS, latNS)
	r.completed.Add(1)
}

// spans records the blocking chain of one completed op from the probes'
// stamps: t0 → last byte written → first update byte read → Convert →
// Present returned.
func (r *recorder) spans(t0 int64, c *probeConn, o *outProbe) {
	if !r.timed {
		return
	}
	w, rd, cv, pr := c.lastWrite.Load(), c.firstRead.Load(), o.convertAt.Load(), o.presentAt.Load()
	if w < t0 || rd < w || cv < rd || pr < cv {
		return // the stamps of another update interleaved; skip the sample
	}
	r.injectNS = append(r.injectNS, w-t0)
	r.turnaroundNS = append(r.turnaroundNS, rd-w)
	r.decodeNS = append(r.decodeNS, cv-rd)
	r.presentNS = append(r.presentNS, pr-cv)
}

// window is what one measured window yielded.
type window struct {
	recs      []*recorder
	marks     []mark         // slice boundaries, first at the window's start
	client    clientCounters // summed over clients, window delta
	hubBefore hubSnapshot
	hubAfter  hubSnapshot
	// queueDepthMax is the deepest run-queue seen by sampling the hub's
	// gauge through a traced window.
	queueDepthMax float64
}

// sliceSeconds is the length of the stretches a window is cut into. The
// reference box's speed wanders by ±15 % over seconds (a bare spin loop
// shows it), so the timed metrics are medians over slices, not window
// totals: a disturbed stretch moves one slice, not the result.
const sliceSeconds = 2

// mark is one slice boundary: the time, the CPU both processes have used,
// and how many ops each client had completed.
type mark struct {
	at                time.Time
	serverUsr, server time.Duration
	self              time.Duration
	done              []int64
}

// sample appends a boundary.
func (w *window) sample(h *hubProc) error {
	usr, sys, err := h.cpu()
	if err != nil {
		return err
	}
	m := mark{at: time.Now(), serverUsr: usr, server: usr + sys, self: selfCPU()}
	for _, r := range w.recs {
		m.done = append(m.done, r.completed.Load())
	}
	w.marks = append(w.marks, m)
	return nil
}

// perSlice evaluates fn on every slice that completed at least one op and
// returns the values. fn gets the slice's length, its completed ops and
// their latencies in µs.
func (w *window) perSlice(fn func(secs, ops float64, latUS []float64) float64) []float64 {
	var out []float64
	for j := 1; j < len(w.marks); j++ {
		a, b := w.marks[j-1], w.marks[j]
		var lat []int64
		for i, r := range w.recs {
			lat = append(lat, r.latNS[a.done[i]:b.done[i]]...)
		}
		if len(lat) == 0 {
			continue
		}
		out = append(out, fn(b.at.Sub(a.at).Seconds(), float64(len(lat)), usOf(lat)))
	}
	return out
}

// opsPerSecond is the median slice's completion rate.
func (w *window) opsPerSecond() float64 {
	return median(w.perSlice(func(secs, ops float64, _ []float64) float64 { return ops / secs }))
}

func (w *window) attempted() (n int) {
	for _, r := range w.recs {
		n += r.attempted
	}
	return n
}

func (w *window) failed() (n int) {
	for _, r := range w.recs {
		n += r.failed
	}
	return n
}

func (w *window) completed() int { return w.attempted() - w.failed() }

// gather concatenates one per-op series over the clients.
func (w *window) gather(pick func(*recorder) []int64) []int64 {
	var out []int64
	for _, r := range w.recs {
		out = append(out, pick(r)...)
	}
	return out
}

// counter is a hub counter's delta over the window.
func (w *window) counter(name string) float64 {
	return float64(w.hubAfter.Counters[name] - w.hubBefore.Counters[name])
}

// histMeanUS is the mean, in µs, of what a hub histogram of seconds
// observed over the window.
func (w *window) histMeanUS(name string) float64 {
	a, b := w.hubAfter.Histograms[name], w.hubBefore.Histograms[name]
	return ratio((a.Sum-b.Sum)*1e6, float64(a.Count-b.Count))
}

// session is one set-up: a hub child and its connected, warm clients.
type session struct {
	hub     *hubProc
	clients []client
	setup   time.Duration
}

func (s *session) close() {
	for _, c := range s.clients {
		c.close()
	}
	s.hub.stop()
}

// setUp starts a fresh hub and connects and warms the clients.
func setUp(d driver, cfg runConfig, traced bool) (*session, error) {
	start := time.Now()
	h, err := startHub(cfg.hubBin, d.federated(), traced)
	if err != nil {
		return nil, err
	}
	s := &session{hub: h}
	cfg.traced = traced
	for i := 0; i < numClients; i++ {
		c, err := d.connect(h, i, cfg)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("client %d: %w; unihub stderr:\n%s", i, err, h.stderr.String())
		}
		s.clients = append(s.clients, c)
	}
	s.setup = time.Since(start)
	return s, nil
}

// measure runs the closed loop on every client for the given time,
// marking slice boundaries as it goes.
func (s *session) measure(seconds float64, timed bool) (*window, error) {
	w := &window{}
	var before clientCounters
	for _, c := range s.clients {
		before = before.add(c.counters())
		w.recs = append(w.recs, &recorder{timed: timed})
	}
	var err error
	if w.hubBefore, err = s.hub.snapshot(); err != nil {
		return nil, err
	}
	if err := w.sample(s.hub); err != nil {
		return nil, err
	}
	start := w.marks[0].at
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))

	var clients, samplers sync.WaitGroup
	for i, c := range s.clients {
		clients.Add(1)
		go func(c client, rec *recorder) {
			defer clients.Done()
			for time.Now().Before(deadline) {
				c.op(rec)
			}
		}(c, w.recs[i])
	}
	var sampleErr error
	samplers.Add(1)
	go func() {
		defer samplers.Done()
		for k := 1; k < int(seconds/sliceSeconds); k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * sliceSeconds * time.Second)))
			if sampleErr = w.sample(s.hub); sampleErr != nil {
				return
			}
		}
	}()
	if timed {
		samplers.Add(1)
		go func() {
			defer samplers.Done()
			for time.Now().Before(deadline) {
				if snap, err := s.hub.snapshot(); err == nil {
					w.queueDepthMax = max(w.queueDepthMax, float64(snap.Gauges["sched_queue_depth"]))
				}
				time.Sleep(50 * time.Millisecond)
			}
		}()
	}
	clients.Wait()
	samplers.Wait()
	if sampleErr != nil {
		return nil, sampleErr
	}
	if err := w.sample(s.hub); err != nil {
		return nil, err
	}

	// Counters are read once the links are quiet, outside the timed region.
	var after clientCounters
	for _, c := range s.clients {
		if err := c.quiesce(); err != nil {
			return nil, err
		}
		after = after.add(c.counters())
	}
	w.client = after.sub(before)
	if w.hubAfter, err = s.hub.snapshot(); err != nil {
		return nil, err
	}
	return w, nil
}

// report is everything one run of one workload produced.
type report struct {
	updatesPerOp int64     // the driver's promise, checked after each window
	setups       []float64 // seconds, one per set-up
	base         *window   // the untraced window: end-to-end metrics come from it
	traced       *window   // the traced window (traced runs only)
	stages       stageFold // folded span recorder (traced runs only)
	layers       map[string]float64
	// Diagnostics taken around the windows.
	goroutinesPerSession float64
	rssPeakMB            float64
	problems             []string // failed correctness checks
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// runWorkload runs one workload once, as cfg says.
func runWorkload(cfg runConfig) (*report, error) {
	d, err := newDriver(cfg.workload)
	if err != nil {
		return nil, err
	}
	rep := &report{updatesPerOp: d.updatesPerOp()}
	if !cfg.traced {
		for i := 0; i < setupsPerRun-1; i++ {
			s, err := setUp(d, cfg, false)
			if err != nil {
				return nil, err
			}
			rep.setups = append(rep.setups, s.setup.Seconds())
			s.close()
		}
		return rep, rep.baseRun(d, cfg, cfg.seconds)
	}

	if err := rep.baseRun(d, cfg, cfg.seconds*tracedBaseShare); err != nil {
		return nil, err
	}
	if err := rep.tracedRun(d, cfg); err != nil {
		return nil, err
	}
	rep.layers, err = replayLayers(cfg.replayCalls)
	return rep, err
}

// baseRun sets up once more, measures the untraced window on it and runs
// the correctness checks.
func (r *report) baseRun(d driver, cfg runConfig, seconds float64) error {
	s, err := setUp(d, cfg, false)
	if err != nil {
		return err
	}
	defer s.close()
	r.setups = append(r.setups, s.setup.Seconds())
	if r.base, err = s.measure(seconds, false); err != nil {
		return err
	}
	return r.verify(s, r.base)
}

// tracedRun measures the traced window against a hub started with
// -trace-sample 1, with sampling on in this process too, and folds both
// span recorders.
func (r *report) tracedRun(d driver, cfg runConfig) error {
	trace.Reset()
	trace.SetSampling(1)
	defer trace.SetSampling(0)
	s, err := setUp(d, cfg, true)
	if err != nil {
		return err
	}
	defer s.close()
	if r.traced, err = s.measure(cfg.seconds*tracedShare, true); err != nil {
		return err
	}
	hubTrace, err := s.hub.get("/debug/uniint/trace", "")
	if err != nil {
		return err
	}
	local := trace.Snapshot()
	if r.stages, err = foldStages(hubTrace, local); err != nil {
		return err
	}
	if cfg.traceOut != "" {
		if err := writeMergedTrace(cfg.traceOut, hubTrace, local); err != nil {
			return err
		}
	}
	return r.verify(s, r.traced)
}

// errNoOps guards the divisions of the metric definitions.
var errNoOps = errors.New("no op completed in the window")
