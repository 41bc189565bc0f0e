package workload

import (
	"encoding/binary"
	"io"
	"net"

	"uniint/internal/rfb"
)

// Idle fleet: the memory- and scheduling-footprint workload. The paper's
// deployment shape — every appliance-filled home reachable at all times,
// almost every session quiet — means a hub's cost is dominated by what an
// IDLE session holds, not by what an active one does. IdleFleet builds
// that population: n sessions that complete the handshake over real
// connections and then go silent, so footprint benchmarks and leak tests
// can measure bytes/session and goroutines/session with nothing else
// moving.

// IdleFleet connects n idle sessions. dial returns the i-th connection
// ready for the protocol handshake — typically net.Dial to a loopback
// listener run by Server.Serve, or hub.DialHome to one run by Hub.Serve.
// Each session's client half is fully scripted on the caller's goroutine
// (hello written, ServerInit read to its last byte), so the fleet adds no
// client goroutines and leaves nothing unread in a socket buffer. The
// returned conns keep the sessions alive; close them to disconnect
// (sessions then park or retire per server policy). A session registers
// just after its ServerInit is written, so callers that count sessions
// wait for the count. On error the already-connected sessions are closed
// before returning.
func IdleFleet(n int, dial func(i int) (net.Conn, error)) ([]net.Conn, error) {
	clients := make([]net.Conn, 0, n)
	for i := 0; i < n; i++ {
		client, err := dial(i)
		if err == nil {
			clients = append(clients, client)
			_, err = client.Write(rfb.ClientHello(""))
		}
		if err == nil {
			err = readServerInit(client)
		}
		if err != nil {
			for _, c := range clients {
				c.Close()
			}
			return nil, err
		}
	}
	return clients, nil
}

// readServerInit consumes the server's half of the handshake: version and
// security word, ServerInit with its length-prefixed desktop name, and the
// resume extension (verdict byte plus length-prefixed token).
func readServerInit(r io.Reader) error {
	var hs [len(rfb.ProtocolVersion) + 4 + 4 + 16 + 4]byte
	if _, err := io.ReadFull(r, hs[:]); err != nil {
		return err
	}
	name := int64(binary.BigEndian.Uint32(hs[len(hs)-4:]))
	if _, err := io.CopyN(io.Discard, r, name); err != nil {
		return err
	}
	var ext [2]byte
	if _, err := io.ReadFull(r, ext[:]); err != nil {
		return err
	}
	_, err := io.CopyN(io.Discard, r, int64(ext[1]))
	return err
}
