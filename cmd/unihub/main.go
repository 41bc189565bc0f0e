// Command unihub is the multi-home hub daemon: one process hosting many
// households' universal-interaction stacks behind a single listener.
//
// Each inbound connection opens with the routing preamble
// ("UNIHUB/1 <home-id>\n"); the hub admits the home on first use (builds
// its appliances, middleware, application and server) and hands the rest
// of the connection to that home's unmodified UniInt server. Homes idle
// past -idle are evicted; -max-homes caps residency.
//
//	unihub -listen :5900 -homes 64 -appliances tv,lamp
//	unihub -peers alpha,beta,gamma -homes 64      # hub-of-hubs federation
//
// With -peers the process runs one hub node per name behind a federation
// router (internal/fed): homes spread across the nodes by rendezvous
// hash, and SIGTERM evacuates members one at a time, live-migrating
// their parked sessions to the survivors before shutdown.
//
// -metrics serves /metrics (Prometheus exposition format, or JSON when the
// request accepts it), /healthz and the trace endpoint.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"uniint"
	"uniint/internal/appliance"
	"uniint/internal/fed"
	"uniint/internal/hub"
	"uniint/internal/metrics"
	"uniint/internal/trace"
	"uniint/internal/workload"
)

func main() {
	listen := flag.String("listen", ":5900", "address serving preamble-routed universal interaction connections")
	metricsListen := flag.String("metrics", ":9190", "address serving /metrics (Prometheus or JSON) and /healthz (empty disables)")
	homes := flag.Int("homes", 64, "homes to pre-admit at startup")
	classes := flag.String("appliances", "tv,lamp", "comma-separated appliance classes per home")
	shards := flag.Int("shards", 64, "registry shard count (rounded up to a power of two)")
	maxHomes := flag.Int("max-homes", 0, "resident home cap (0 = unlimited)")
	idle := flag.Duration("idle", 10*time.Minute, "evict homes idle this long (0 disables)")
	width := flag.Int("width", 320, "per-home desktop width")
	height := flag.Int("height", 240, "per-home desktop height")
	drainTimeout := flag.Duration("drain", 5*time.Second, "graceful drain window on shutdown")
	pprofFlag := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the metrics address")
	pprofMutex := flag.Int("pprof-mutex", 0, "mutex profile fraction (runtime.SetMutexProfileFraction; 0 disables)")
	pprofBlock := flag.Int("pprof-block", 0, "block profile rate in ns (runtime.SetBlockProfileRate; 0 disables)")
	traceSample := flag.Int("trace-sample", 0, "trace 1 in N accepted interactions (rounded up to a power of two; 0 disables)")
	traceSlow := flag.Duration("trace-slow", 0, "log a per-stage breakdown for traced interactions slower than this (0 disables)")
	peers := flag.String("peers", "", "comma-separated federation member names: run a hub-of-hubs of in-process nodes behind one router (empty: single hub)")
	flag.Parse()

	if err := run(config{
		listen: *listen, metricsListen: *metricsListen,
		homes: *homes, classes: *classes, shards: *shards,
		maxHomes: *maxHomes, idle: *idle,
		width: *width, height: *height, drainTimeout: *drainTimeout,
		pprof: *pprofFlag, pprofMutex: *pprofMutex, pprofBlock: *pprofBlock,
		traceSample: *traceSample, traceSlow: *traceSlow,
		peers: *peers,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "unihub:", err)
		os.Exit(1)
	}
}

type config struct {
	listen, metricsListen string
	homes, shards         int
	classes               string
	maxHomes              int
	idle                  time.Duration
	width, height         int
	drainTimeout          time.Duration
	pprof                 bool
	pprofMutex            int
	pprofBlock            int
	traceSample           int
	traceSlow             time.Duration
	peers                 string
}

// homeFactory builds one household's full stack per admission. All homes
// share one content-addressed tile cache: the hub's homes render nearly
// identical control panels, so after the first home encodes a widget body
// every other home's session ships an 8-byte reference to it.
func homeFactory(classes []string, w, h int) hub.Factory {
	tiles := uniint.NewTileCache(0)
	return func(homeID string) (hub.Host, error) {
		apps := make([]appliance.Appliance, 0, len(classes))
		for i, class := range classes {
			a, err := appliance.New(class, fmt.Sprintf("%s/%s-%d", homeID, class, i))
			if err != nil {
				return nil, err
			}
			apps = append(apps, a)
		}
		return uniint.NewSessionForHub(uniint.Options{
			Width: w, Height: h, Name: homeID, Appliances: apps,
			Tiles: tiles,
		})
	}
}

// newHub builds one hub node the way the flags say; the single hub and
// every federation member are the same thing.
func newHub(cfg config, factory hub.Factory) (*hub.Hub, error) {
	return hub.New(hub.Options{
		Factory:     factory,
		Shards:      cfg.shards,
		MaxHomes:    cfg.maxHomes,
		IdleTimeout: cfg.idle,
	})
}

func splitClasses(s string) []string {
	var out []string
	for _, c := range strings.Split(s, ",") {
		if c = strings.TrimSpace(c); c != "" {
			out = append(out, c)
		}
	}
	return out
}

func run(cfg config) error {
	classes := splitClasses(cfg.classes)
	if len(classes) == 0 {
		return fmt.Errorf("no appliance classes")
	}
	if cfg.traceSample > 0 {
		trace.SetSampling(cfg.traceSample)
		fmt.Printf("tracing 1 in %d interactions\n", trace.Sampling())
	}
	if cfg.traceSlow > 0 {
		trace.SetSlowLog(os.Stderr, cfg.traceSlow)
	}
	if cfg.pprofMutex > 0 {
		runtime.SetMutexProfileFraction(cfg.pprofMutex)
	}
	if cfg.pprofBlock > 0 {
		runtime.SetBlockProfileRate(cfg.pprofBlock)
	}
	if cfg.peers != "" {
		return runFederated(cfg, classes)
	}
	h, err := newHub(cfg, homeFactory(classes, cfg.width, cfg.height))
	if err != nil {
		return err
	}
	defer h.Close()

	start := time.Now()
	for i := 0; i < cfg.homes; i++ {
		if _, err := h.Admit(workload.HomeID(i)); err != nil {
			return fmt.Errorf("pre-admit %s: %w", workload.HomeID(i), err)
		}
	}
	fmt.Printf("hosting %d homes (%s each) after %v\n",
		h.Homes(), cfg.classes, time.Since(start).Round(time.Millisecond))

	if cfg.metricsListen != "" {
		mln, err := serveMetrics(cfg, func() map[string]any {
			return healthz(h.Homes(), h.Connections(), start)
		})
		if err != nil {
			return err
		}
		defer mln.Close()
	}

	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return err
	}
	fmt.Printf("routing universal interaction connections on %s\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- h.Serve(ln) }()
	select {
	case <-sig:
		fmt.Println("\ndraining")
		ln.Close()
		if err := h.Drain(cfg.drainTimeout); err != nil {
			fmt.Println(err)
		}
		<-serveErr
		return nil
	case err := <-serveErr:
		return err
	}
}

// runFederated runs the hub-of-hubs: one in-process hub node per -peers
// name behind a fed.Cluster front router on -listen. Homes pre-admit on
// their rendezvous owner; all nodes share one tile cache through the
// common factory, so cross-home deduplication spans the federation. On
// SIGTERM every member evacuates through the cluster in turn — the live
// deploy-drain path — and the survivors' hubs then drain normally.
func runFederated(cfg config, classes []string) error {
	names := splitClasses(cfg.peers)
	if len(names) == 0 {
		return fmt.Errorf("no federation members in -peers")
	}
	cluster := fed.NewCluster(fed.Options{})
	factory := homeFactory(classes, cfg.width, cfg.height)
	hubs := make(map[string]*hub.Hub, len(names))
	for _, name := range names {
		h, err := newHub(cfg, factory)
		if err != nil {
			return err
		}
		defer h.Close()
		hubs[name] = h
		if err := cluster.AddNode(name, h); err != nil {
			return err
		}
	}

	start := time.Now()
	for i := 0; i < cfg.homes; i++ {
		id := workload.HomeID(i)
		owner, ok := cluster.Owner(id)
		if !ok {
			return fmt.Errorf("no ring owner for %s", id)
		}
		if _, err := hubs[owner].Admit(id); err != nil {
			return fmt.Errorf("pre-admit %s on %s: %w", id, owner, err)
		}
	}
	fmt.Printf("federating %d homes (%s each) across %d nodes (%s) after %v\n",
		cfg.homes, cfg.classes, len(names), cfg.peers,
		time.Since(start).Round(time.Millisecond))

	if cfg.metricsListen != "" {
		// The federation probe sums residency across members and names
		// each member's share — the first thing to look at when the ring
		// is suspected of skewing.
		mln, err := serveMetrics(cfg, func() map[string]any {
			homes, conns := 0, int64(0)
			members := make(map[string]any, len(hubs))
			for name, h := range hubs {
				homes += h.Homes()
				conns += h.Connections()
				members[name] = map[string]any{
					"homes": h.Homes(), "connections": h.Connections(),
				}
			}
			out := healthz(homes, conns, start)
			out["federation"] = members
			return out
		})
		if err != nil {
			return err
		}
		defer mln.Close()
	}

	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return err
	}
	fmt.Printf("routing universal interaction connections on %s\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- cluster.Serve(ln) }()
	select {
	case <-sig:
		fmt.Println("\ndraining federation")
		ln.Close()
		// Evacuate members one by one — each drain live-migrates its
		// sessions to the survivors, exactly like a rolling deploy. The
		// last member has nowhere to ship to; its hub drains in place.
		for _, name := range names[:len(names)-1] {
			if err := cluster.Drain(name); err != nil {
				fmt.Println(err)
			}
		}
		if err := hubs[names[len(names)-1]].Drain(cfg.drainTimeout); err != nil {
			fmt.Println(err)
		}
		snap := metrics.Default().Snapshot()
		fmt.Printf("federation drained: %d home migrations (%d session-record bytes)\n",
			snap.Counters["fed_migrations_total"], snap.Counters["fed_migration_bytes_total"])
		<-serveErr
		return nil
	case err := <-serveErr:
		return err
	}
}

// mServerGoroutines tracks the process goroutine count, sampled whenever
// /metrics or /healthz renders. Under the budgeted event runtime it should
// track the worker budget, not the session count — a divergence here is
// the first sign of a leaked per-session goroutine.
var mServerGoroutines = metrics.Default().Gauge("server_goroutines")

// serveMetrics starts the observability listener: /metrics with content
// negotiation (JSON for tooling that asks for it, the Prometheus
// exposition format with # TYPE headers and exemplars for everything
// else), /healthz fed by the caller's probe closure (single-hub and
// federated mode summarize residency differently), the trace handler, and
// optionally pprof. The caller closes the returned listener on shutdown.
func serveMetrics(cfg config, hz func() map[string]any) (net.Listener, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		mServerGoroutines.Set(int64(runtime.NumGoroutine()))
		if strings.Contains(r.Header.Get("Accept"), "application/json") {
			w.Header().Set("Content-Type", "application/json")
			_ = metrics.Default().WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = metrics.Default().WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(hz())
	})
	mux.Handle("/debug/uniint/trace", trace.Handler())
	if cfg.pprof {
		// Profiling rides the metrics mux: `go tool pprof
		// http://host:9190/debug/pprof/profile` against a live hub.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mln, err := net.Listen("tcp", cfg.metricsListen)
	if err != nil {
		return nil, fmt.Errorf("metrics listener: %w", err)
	}
	go func() { _ = http.Serve(mln, mux) }() // goroutine-ok: http.Serve blocks for the process lifetime
	fmt.Printf("metrics on http://%s/metrics\n", mln.Addr())
	if cfg.pprof {
		fmt.Printf("pprof on http://%s/debug/pprof/\n", mln.Addr())
	}
	return mln, nil
}

// healthz summarizes liveness for probes: uptime, residency, connection
// and session counts, detach-lot depth, scheduler saturation (worker
// budget, run-queue depth, goroutine count) and the build that is running.
func healthz(homes int, connections int64, start time.Time) map[string]any {
	mServerGoroutines.Set(int64(runtime.NumGoroutine()))
	snap := metrics.Default().Snapshot()
	out := map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(start).Seconds(),
		"homes":          homes,
		"connections":    connections,
		"sessions":       snap.Gauges["server_sessions"],
		"parked":         snap.Gauges["session_parked"],
		"queue_depth":    snap.Gauges["input_queue_depth"],
		"goroutines":     snap.Gauges["server_goroutines"],
		"sched": map[string]any{
			"workers":      snap.Gauges["sched_workers"],
			"run_queue":    snap.Gauges["sched_queue_depth"],
			"turns":        snap.Counters["sched_turns_total"],
			"wheel_timers": snap.Gauges["sched_wheel_timers"],
		},
		"go_version":     runtime.Version(),
		"trace_sampling": trace.Sampling(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		build := map[string]string{"path": bi.Main.Path, "version": bi.Main.Version}
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision", "vcs.time", "vcs.modified":
				build[s.Key] = s.Value
			}
		}
		out["build"] = build
	}
	return out
}
