package uniint

// TestChaosSoak is the CI soak gate: a deterministic, seeded chaos run
// driving the roam workload (devices hopping across hub-hosted homes)
// through netsim fault injection — mid-stream link kills, drops inside
// the handshake window, latency jitter, byte truncation — while the
// proxies reconnect and resume. The run asserts the system-level
// invariants that must survive any interleaving: the test completes (no
// deadlock), every home still serves a clean connection afterwards, the
// detach lot actually parked and resumed sessions, and the lot
// accounting balances.
//
// The fault plan is reproducible from the seed: on failure, rerun with
//
//	SOAK_SEED=<seed> go test -race -run TestChaosSoak -v .
//
// Knobs (environment): SOAK_SEED, SOAK_HOMES, SOAK_DEVICES, SOAK_HOPS,
// SOAK_STEPS. CI's PR soak uses the defaults; the nightly long soak
// scales them up and varies the seed per run.

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"uniint/internal/appliance"
	"uniint/internal/core"
	"uniint/internal/device"
	"uniint/internal/gfx"
	"uniint/internal/hub"
	"uniint/internal/metrics"
	"uniint/internal/netsim"
	"uniint/internal/rfb"
	"uniint/internal/workload"
)

func soakEnv(name string, def int64) int64 {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return def
}

func TestChaosSoak(t *testing.T) {
	seed := soakEnv("SOAK_SEED", 1)
	cfg := workload.RoamConfig{
		Homes:         int(soakEnv("SOAK_HOMES", 4)),
		Devices:       int(soakEnv("SOAK_DEVICES", 3)),
		Hops:          int(soakEnv("SOAK_HOPS", 5)),
		StepsPerVisit: int(soakEnv("SOAK_STEPS", 4)),
		Seed:          seed,
	}
	t.Logf("chaos soak: seed=%d homes=%d devices=%d hops=%d steps=%d (repro: SOAK_SEED=%d go test -race -run TestChaosSoak -v .)",
		seed, cfg.Homes, cfg.Devices, cfg.Hops, cfg.StepsPerVisit, seed)

	before := readSoakCounts()

	h, err := hub.New(hub.Options{
		Factory: func(homeID string) (hub.Host, error) {
			return NewSessionForHub(Options{
				Width: 160, Height: 120, Name: homeID,
				Appliances: []appliance.Appliance{appliance.NewLamp("Lamp " + homeID)},
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	plans := workload.Roam(cfg)
	var wg sync.WaitGroup
	errs := make(chan error, len(plans))
	for di, plan := range plans {
		wg.Add(1)
		go func(di int, plan workload.RoamPlan) {
			defer wg.Done()
			if err := soakDevice(h, seed, di, plan); err != nil {
				errs <- fmt.Errorf("%s: %w", plan.DeviceID, err)
			}
		}(di, plan)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every home survived the storm: a clean connection joins and gets a
	// full update.
	for m := 0; m < cfg.Homes; m++ {
		if err := soakProbeHome(h, workload.HomeID(m)); err != nil {
			t.Errorf("post-storm probe of %s: %v", workload.HomeID(m), err)
		}
	}

	// The failure path was actually exercised, and the lot accounting
	// balances: parked ≥ resumed (every resume claims a park).
	d := readSoakCounts().since(before)
	if d.parked == 0 {
		t.Error("soak never parked a session — the storm did not exercise the failure path")
	}
	counts := fmt.Sprintf("%d parked, %d resumed, %d resume misses, %d expired, %d takeovers, %d hub token-route misses",
		d.parked, d.resumed, d.missed, d.expired, d.takeovers, d.tokenMisses)
	if d.resumed == 0 {
		t.Errorf("soak never resumed a session — injected mid-visit drops should reconnect in place (%s)", counts)
	}
	if d.resumed > d.parked {
		t.Errorf("lot accounting broken: resumed %d > parked %d", d.resumed, d.parked)
	}
	t.Logf("soak: %s", counts)
}

// soakCounts are the lot and token-route counters of the default
// registry. Their deltas across a soak say whether it parked and resumed
// sessions, and which way the reconnects that did not resume went.
type soakCounts struct{ parked, resumed, missed, expired, takeovers, tokenMisses int64 }

func readSoakCounts() soakCounts {
	counter := func(name string) int64 { return metrics.Default().Counter(name).Value() }
	return soakCounts{
		parked:      counter("session_parked_total"),
		resumed:     counter("session_resumed_total"),
		missed:      counter("session_resume_miss_total"),
		expired:     counter("session_expired_total"),
		takeovers:   counter("session_takeover_total"),
		tokenMisses: counter("hub_token_route_misses_total"),
	}
}

func (s soakCounts) since(b soakCounts) soakCounts {
	return soakCounts{s.parked - b.parked, s.resumed - b.resumed, s.missed - b.missed,
		s.expired - b.expired, s.takeovers - b.takeovers, s.tokenMisses - b.tokenMisses}
}

// soakDevice walks one roam itinerary: connect to the visit's home
// through a fault-injected link, interact, hop by killing the link.
func soakDevice(h *hub.Hub, seed int64, di int, plan workload.RoamPlan) error {
	// The byte budgets are sized to the wire-efficiency tier: a cold join
	// plus a visit's repaints now ship a few hundred bytes (CopyRect,
	// tile refs, dictionary zlib), so budgets in this range still kill
	// links mid-visit — which is what drives the in-place resumes the
	// test asserts. Budgets sized for the pre-tier raw/hextile volume
	// (thousands of bytes) would outlast every visit and never fire.
	inj := netsim.NewInjector(netsim.FaultConfig{
		Seed:               seed + int64(di)*104_729,
		DropAfterMin:       300,
		DropAfterMax:       1_200,
		HandshakeDropEvery: 7,
		Jitter:             200 * time.Microsecond,
		Truncate:           true,
	})

	var mu sync.Mutex
	target := plan.Visits[0].HomeID
	var link *netsim.Conn
	dial := func() (net.Conn, error) {
		mu.Lock()
		home := target
		mu.Unlock()
		sc, cc := net.Pipe()
		go h.ServeConn(sc)
		c := inj.Wrap(cc)
		if err := hub.WritePreamble(c, home); err != nil {
			c.Close()
			return nil, err
		}
		mu.Lock()
		link = c
		mu.Unlock()
		return c, nil
	}

	proxy, err := core.Connect(dial, core.WithBackoff(time.Millisecond))
	if err != nil {
		// The injector may kill the very first handshake; retry a few
		// times like a real device would.
		for i := 0; i < 20 && err != nil; i++ {
			proxy, err = core.Connect(dial, core.WithBackoff(time.Millisecond))
		}
		if err != nil {
			return fmt.Errorf("initial connect: %w", err)
		}
	}
	defer proxy.Close()
	phone := device.NewPhone(plan.DeviceID)
	defer phone.Close()
	if err := proxy.AttachInput(phone); err != nil {
		return err
	}
	if err := proxy.SelectInput(phone.ID()); err != nil {
		return err
	}
	// A display output keeps framebuffer traffic flowing (full paint per
	// join, repaints per interaction) so the byte-budget kills actually
	// fire mid-visit — that is what drives in-place resumes.
	tv := device.NewTVDisplay(plan.DeviceID + "-tv")
	if err := proxy.AttachOutput(tv); err != nil {
		return err
	}
	if err := proxy.SelectOutput(tv.ID()); err != nil {
		return err
	}

	for vi, visit := range plan.Visits {
		if vi > 0 {
			// Hop: retarget, kill the live link, let the proxy
			// re-establish against the new home.
			before := proxy.Reconnects()
			mu.Lock()
			target = visit.HomeID
			l := link
			mu.Unlock()
			if l != nil {
				l.DropLink()
			}
			deadline := time.Now().Add(10 * time.Second)
			for proxy.Reconnects() == before {
				if time.Now().After(deadline) {
					return fmt.Errorf("hop %d to %s: reconnect stuck (last error: %v)", vi, visit.HomeID, proxy.LastError())
				}
				time.Sleep(time.Millisecond)
			}
		}
		inPlace := proxy.Reconnects()
		for _, step := range visit.Script {
			phone.PressKey(step.Arg)
			time.Sleep(2 * time.Millisecond)
		}
		// Stay until a byte-budget kill has landed inside the visit: its
		// redial returns to this home with the token, the in-place resume
		// the soak asserts. A visit of the script's length alone (~8 ms)
		// left that to the host's speed: under CPU contention no link in
		// a run reached its budget before the next hop killed it.
		for deadline := time.Now().Add(2 * time.Second); proxy.Reconnects() == inPlace && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// soakProbeHome joins a home over a clean link and demands a full
// update.
func soakProbeHome(h *hub.Hub, homeID string) error {
	sc, cc := net.Pipe()
	go h.ServeConn(sc)
	if err := hub.WritePreamble(cc, homeID); err != nil {
		return err
	}
	client, err := rfb.Dial(cc)
	if err != nil {
		return err
	}
	defer client.Close()
	got := make(chan struct{}, 1)
	go client.Run(probeHandler{got})
	w, hh := client.Size()
	if err := client.RequestUpdate(false, gfx.R(0, 0, w, hh)); err != nil {
		return err
	}
	select {
	case <-got:
		return nil
	case <-time.After(5 * time.Second):
		return fmt.Errorf("no update within 5s")
	}
}

type probeHandler struct{ got chan struct{} }

func (p probeHandler) Updated([]gfx.Rect) {
	select {
	case p.got <- struct{}{}:
	default:
	}
}
func (probeHandler) Bell()          {}
func (probeHandler) CutText(string) {}
