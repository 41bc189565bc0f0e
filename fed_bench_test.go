package uniint

// Federation benchmark (gated in CI alongside the macro set):
//
//	BenchmarkE2bMigrate  drain → live migration → rebalance back →
//	                     token resume through the front router
//
// One op is a full round trip of the deploy story: the node owning a
// parked session drains (the session ships to the survivor through the
// UNIMIG/2 record), the node rejoins (the rebalance ships it back), and
// the client redials through the router, resuming with an incremental
// resync. migbytes/op is the serialized session state that crossed
// between nodes.

import (
	"net"
	"testing"
	"time"

	"uniint/internal/fed"
	"uniint/internal/gfx"
	"uniint/internal/hub"
	"uniint/internal/metrics"
	"uniint/internal/rfb"
	"uniint/internal/toolkit"
	"uniint/internal/uniserver"
)

func BenchmarkE2bMigrate(b *testing.B) {
	const homeID = "migrate-home"
	display := toolkit.NewDisplay(320, 240)
	srv := uniserver.New(display, "migrate-bench", uniserver.Config{})
	defer srv.Close()
	lbl := toolkit.NewLabel("migrate bench")
	root := toolkit.NewPanel(toolkit.VBox{Gap: 4, Padding: 4})
	root.Add(lbl)
	display.SetRoot(root)
	display.Render()
	full := gfx.R(0, 0, 320, 240)

	// Two member nodes sharing one memoized home stack: hub nodes are
	// stateless session fronts, migration moves only session state.
	reg := metrics.NewRegistry()
	cluster := fed.NewCluster(fed.Options{Metrics: reg})
	hubs := map[string]*hub.Hub{}
	for _, name := range []string{"alpha", "beta"} {
		h, err := hub.New(hub.Options{
			Factory: func(string) (hub.Host, error) { return srv, nil },
			Metrics: reg,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer h.Close()
		hubs[name] = h
		if err := cluster.AddNode(name, h); err != nil {
			b.Fatal(err)
		}
	}
	owner, ok := cluster.Owner(homeID)
	if !ok {
		b.Fatal("no ring owner")
	}

	dial := func() net.Conn {
		sc, cc := net.Pipe()
		// goroutine-ok: bench transport; ServeConn exits with the conn.
		go func() { _ = cluster.ServeConn(sc) }()
		if err := hub.WritePreamble(cc, homeID); err != nil {
			b.Fatal(err)
		}
		return cc
	}
	waitParked := func() {
		for srv.Parked() != 1 {
			time.Sleep(20 * time.Microsecond)
		}
	}
	texts := [2]string{"state A", "state B"}

	// Prime: join through the router, full paint, leave an incremental
	// request parked, park.
	client, err := rfb.Dial(dial())
	if err != nil {
		b.Fatal(err)
	}
	token := client.Token()
	got := make(chan struct{}, 1)
	go client.Run(resumeBenchHandler{client, full, got})
	if err := client.RequestUpdate(false, full); err != nil {
		b.Fatal(err)
	}
	<-got
	client.Close()
	waitParked()

	bytes0 := reg.Counter("fed_migration_bytes_total").Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Detach-window damage accumulates in the parked session.
		display.Update(func() { lbl.SetText(texts[i%2]) })

		// Drain-for-deploy and rejoin: the parked session crosses the
		// serialization boundary twice.
		if err := cluster.Drain(owner); err != nil {
			b.Fatal(err)
		}
		if err := cluster.AddNode(owner, hubs[owner]); err != nil {
			b.Fatal(err)
		}

		client, err := rfb.DialResume(dial(), token)
		if err != nil {
			b.Fatal(err)
		}
		if !client.Resumed() {
			b.Fatal("resume missed after migration")
		}
		got := make(chan struct{}, 1)
		go client.Run(resumeBenchHandler{client, full, got})
		_ = client.RequestUpdate(true, full)
		<-got
		client.Close()
		waitParked()
	}
	b.StopTimer()
	shipped := reg.Counter("fed_migration_bytes_total").Value() - bytes0
	b.ReportMetric(float64(shipped)/float64(b.N), "migbytes/op")
}
