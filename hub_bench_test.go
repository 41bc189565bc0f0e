package uniint_test

// The hub experiment family: how the multi-home hub scales with resident
// home count. External test package (uniint_test) so it can import
// internal/hub, which the in-package benchmarks cannot (hub sits beside
// the facade, not beneath it).
//
//	BenchmarkHubRoute    home-table routing lookups, 1/16/64/256 homes
//	BenchmarkHubAdmit    cold admission cost of a full home stack
//	BenchmarkHubSession  end-to-end interaction across N live homes
//
// The routing path must stay flat as homes grow (one lock, one map
// read); the session path measures one interaction — key press →
// universal event → home's server → toolkit → middleware → appliance
// state change — with N complete households resident in the process.

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"uniint"
	"uniint/internal/appliance"
	"uniint/internal/core"
	"uniint/internal/device"
	"uniint/internal/havi"
	"uniint/internal/havi/fcm"
	"uniint/internal/hub"
	"uniint/internal/metrics"
	"uniint/internal/workload"
)

var hubHomeCounts = []int{1, 16, 64, 256}

// stubHome is an inert connection handler for benchmarks that measure only the
// registry, not the per-home stack.
type stubHome struct{}

func (stubHome) HandleConn(conn net.Conn) error { conn.Close(); return nil }
func (stubHome) Close()                         {}

// BenchmarkHubRoute measures the connection-routing lookup (Admit on a
// resident home): the table lock, a map read and the entry's stamp, at no
// allocation. Flat ns/op across 1→256 homes is the point.
func BenchmarkHubRoute(b *testing.B) {
	for _, homes := range hubHomeCounts {
		b.Run(fmt.Sprintf("%d-homes", homes), func(b *testing.B) {
			h, err := hub.New(hub.Options{
				Factory: func(string) (hub.Host, error) { return hub.AdaptConnHandler(stubHome{}), nil },
				Metrics: metrics.NewRegistry(),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer h.Close()
			ids := make([]string, homes)
			for i := range ids {
				ids[i] = workload.HomeID(i)
				if _, err := h.Admit(ids[i]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, err := h.Admit(ids[i%homes]); err != nil {
						b.Fatal(err)
					}
					i++
				}
			})
		})
	}
}

// BenchmarkHubAdmit measures cold admission: one op builds a complete
// household (appliances, middleware, application, server) and evicts it.
func BenchmarkHubAdmit(b *testing.B) {
	h, err := hub.New(hub.Options{
		Factory: benchHomeFactory(nil),
		Metrics: metrics.NewRegistry(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("cold-%d", i)
		if _, err := h.Admit(id); err != nil {
			b.Fatal(err)
		}
		if !h.Evict(id) {
			b.Fatal("evict failed")
		}
	}
}

// benchHomeFactory builds the small benchmark household: one lamp on a
// 160×120 desktop. When record is non-nil the created session is stored
// under its home ID so the benchmark can reach the home's middleware.
func benchHomeFactory(record *sync.Map) hub.Factory {
	return func(homeID string) (hub.Host, error) {
		s, err := uniint.NewSessionForHub(uniint.Options{
			Width: 160, Height: 120, Name: homeID,
			Appliances: []appliance.Appliance{appliance.NewLamp(homeID + " lamp")},
		})
		if err != nil {
			return nil, err
		}
		if record != nil {
			record.Store(homeID, s)
		}
		return s, nil
	}
}

// homeRig is one live home plus its routed proxy connection and phone.
type homeRig struct {
	proxy *core.Proxy
	phone *device.Phone
	latch chan int

	proxyErr chan error
	routeErr chan error
}

// dialRig routes one phone-equipped proxy into homeID through the hub's
// preamble path and latches the home's lamp power events.
func dialRig(b *testing.B, h *hub.Hub, sessions *sync.Map, homeID string) *homeRig {
	b.Helper()
	client, server := net.Pipe()
	rig := &homeRig{
		latch:    make(chan int, 256),
		proxyErr: make(chan error, 1),
		routeErr: make(chan error, 1),
	}
	go func() { rig.routeErr <- h.ServeConn(server) }()
	if err := hub.WritePreamble(client, homeID); err != nil {
		b.Fatal(err)
	}
	proxy, err := core.Dial(client)
	if err != nil {
		b.Fatal(err)
	}
	rig.proxy = proxy
	go func() { rig.proxyErr <- proxy.Run() }()

	rig.phone = device.NewPhone(homeID + "/phone")
	if err := proxy.AttachInput(rig.phone); err != nil {
		b.Fatal(err)
	}
	if err := proxy.SelectInput(rig.phone.ID()); err != nil {
		b.Fatal(err)
	}

	v, ok := sessions.Load(homeID)
	if !ok {
		b.Fatalf("no session recorded for %s", homeID)
	}
	s := v.(*uniint.HubSession)
	s.Home.Network().Events().Subscribe(havi.EventFCMChanged, func(ev havi.Event) {
		if ev.Key == fcm.CtlPower {
			select {
			case rig.latch <- ev.Value:
			default:
			}
		}
	})
	return rig
}

func (r *homeRig) close() {
	r.phone.Close()
	r.proxy.Close()
	<-r.proxyErr
	<-r.routeErr
}

// BenchmarkHubSession measures one scripted interaction end to end with N
// complete homes resident: phone key press on home i → universal event →
// routed connection → home's server → toolkit → HAVi → lamp state change.
func BenchmarkHubSession(b *testing.B) {
	for _, homes := range hubHomeCounts {
		b.Run(fmt.Sprintf("%d-homes", homes), func(b *testing.B) {
			var sessions sync.Map
			h, err := hub.New(hub.Options{
				Factory: benchHomeFactory(&sessions),
				Metrics: metrics.NewRegistry(),
			})
			if err != nil {
				b.Fatal(err)
			}
			rigs := make([]*homeRig, homes)
			for i := range rigs {
				rigs[i] = dialRig(b, h, &sessions, workload.HomeID(i))
			}
			b.Cleanup(func() {
				for _, r := range rigs {
					r.close()
				}
				h.Close()
			})
			if h.Homes() != homes {
				b.Fatalf("resident homes = %d, want %d", h.Homes(), homes)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rig := rigs[i%homes]
				rig.phone.PressKey("ok")
				select {
				case <-rig.latch:
				case <-time.After(10 * time.Second):
					b.Fatal("timed out waiting for appliance reaction")
				}
			}
		})
	}
}
