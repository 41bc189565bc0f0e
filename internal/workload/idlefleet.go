package workload

import (
	"net"

	"uniint/internal/netsim"
	"uniint/internal/rfb"
)

// Idle fleet: the memory- and scheduling-footprint workload. The paper's
// deployment shape — every appliance-filled home reachable at all times,
// almost every session quiet — means a hub's cost is dominated by what an
// IDLE session holds, not by what an active one does. IdleFleet builds
// that population: n sessions that complete the handshake over
// goroutine-free event pipes and then go silent, so footprint benchmarks
// and leak tests can measure bytes/session and goroutines/session with
// nothing else moving.

// IdleFleet attaches n idle edge sessions through attach (typically
// Server.Attach, or Hub.Route wrapped to pick a home). Each
// session's client half is fully scripted — hello pipelined before the
// attach, ServerInit drained after — so the fleet adds zero client
// goroutines. The returned client conns keep the sessions alive; close
// them to disconnect (sessions then park or retire per server policy).
// On error the already-attached sessions are closed before returning.
func IdleFleet(n int, attach func(conn net.Conn) error) ([]net.Conn, error) {
	clients := make([]net.Conn, 0, n)
	var scratch [512]byte
	for i := 0; i < n; i++ {
		client, server := netsim.EventPipe()
		// Pipelined client hello: the server-side handshake inside attach
		// never blocks waiting on the peer.
		if _, err := client.Write(rfb.ClientHello("")); err != nil {
			client.Close()
			closeAll(clients)
			return nil, err
		}
		if err := attach(server); err != nil {
			client.Close()
			closeAll(clients)
			return nil, err
		}
		// Discard the server's handshake output so idle buffers stay empty.
		for {
			m, err := client.ReadAvailable(scratch[:])
			if m == 0 || err != nil {
				break
			}
		}
		clients = append(clients, client)
	}
	return clients, nil
}

func closeAll(conns []net.Conn) {
	for _, c := range conns {
		c.Close()
	}
}
