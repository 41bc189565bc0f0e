package uniserver

import (
	"sync"
	"testing"
	"time"

	"uniint/internal/leakcheck"
	"uniint/internal/metrics"
	"uniint/internal/toolkit"
)

// parkedEntry fetches the single lot entry (the tests park exactly one
// session at a time).
func parkedEntry(t *testing.T, s *Server) *parkedSession {
	t.Helper()
	s.lotMu.Lock()
	defer s.lotMu.Unlock()
	if len(s.lot) != 1 {
		t.Fatalf("lot holds %d entries, want 1", len(s.lot))
	}
	for _, ps := range s.lot {
		return ps
	}
	return nil
}

func lotGauges() (resident, compressed int64) {
	snap := metrics.Default().Snapshot()
	return snap.Gauges["lot_parked_bytes"], snap.Gauges["lot_parked_bytes_compressed"]
}

func TestParkedSessionCompresses(t *testing.T) {
	leakcheck.Check(t, 0)
	display := toolkit.NewDisplay(160, 120)
	srv := New(display, "park compress", Config{})
	defer srv.Close()

	r0, c0 := lotGauges()
	client := pipeWire(t, srv, "")
	_, token := readServerInit(t, client)
	client.Close()
	waitFor(t, "session parked", func() bool { return srv.Parked() == 1 })

	raw := int64(160 * 120 * 4)
	// The compression turn runs async on the server's pool; wait for the
	// packed form to land, observable through the gauges.
	waitFor(t, "parked shadow compressed", func() bool {
		_, c := lotGauges()
		return c > c0
	})
	r1, c1 := lotGauges()
	if r1-r0 != c1-c0 {
		t.Fatalf("resident %d != compressed %d after pack", r1-r0, c1-c0)
	}
	if (c1-c0)*3 > raw {
		t.Fatalf("compressed to %d bytes of %d raw: under the 3x floor", c1-c0, raw)
	}

	// Resume on the cold state: the thawed shadow must serve a working
	// session, and the gauges must return to their baseline.
	client2 := pipeWire(t, srv, token)
	defer client2.Close()
	resumed, _ := readServerInit(t, client2)
	if !resumed {
		t.Fatal("resume on compressed parked session failed")
	}
	waitFor(t, "lot emptied", func() bool { return srv.Parked() == 0 })
	r2, c2 := lotGauges()
	if r2 != r0 || c2 != c0 {
		t.Fatalf("gauges %d/%d after resume, want %d/%d", r2, c2, r0, c0)
	}
}

func TestResumeMidCompressionNeverTorn(t *testing.T) {
	// The claim/pack race: a resume landing while the compression turn is
	// mid-read must wait the read out and adopt intact state. The race
	// window is forced by invoking the compression turn concurrently with
	// the claim, many rounds, under -race in CI.
	leakcheck.Check(t, 0)
	display := toolkit.NewDisplay(64, 48)
	srv := New(display, "park race", Config{})
	defer srv.Close()

	for round := 0; round < 25; round++ {
		client := pipeWire(t, srv, "")
		_, token := readServerInit(t, client)
		client.Close()
		waitFor(t, "session parked", func() bool { return srv.Parked() == 1 })
		ps := parkedEntry(t, srv)

		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.compressParked(ps) // may double-run against the pool's turn: idempotent
		}()
		reclaimed := srv.claimParked(token, 64, 48, nil)
		wg.Wait()
		if reclaimed == nil {
			t.Fatalf("round %d: claim lost a parked session", round)
		}
		// Whatever the interleaving, the claimed entry holds exactly one
		// usable shadow: raw, or cold and thawable.
		srv.lotMu.Lock()
		ws, packed := reclaimed.ws, reclaimed.packed
		srv.lotMu.Unlock()
		if ws == nil {
			if packed == nil {
				t.Fatalf("round %d: claimed entry has neither raw nor packed shadow", round)
			}
			thawed, err := packed.Unpack(nil)
			if err != nil || thawed.ShadowBytes() != 64*48*4 {
				t.Fatalf("round %d: thaw failed: %v", round, err)
			}
		}
		srv.releaseClaim(reclaimed)
		// Drain the lot for the next round via the sweep-on-expire path:
		// claim it again and finish through a real resume.
		client2 := pipeWire(t, srv, token)
		resumed, _ := readServerInit(t, client2)
		if !resumed {
			t.Fatalf("round %d: post-race resume failed", round)
		}
		client2.Close()
		waitFor(t, "round parked again", func() bool { return srv.Parked() == 1 })
		// Expire it so the next round starts from an empty lot (settling
		// the park accounting the way the janitor would).
		srv.lotMu.Lock()
		drained := make([]*parkedSession, 0, 1)
		for tok, e := range srv.lot {
			delete(srv.lot, tok)
			mSessParkedNow.Dec()
			lotBytesAdd(e, -1)
			drained = append(drained, e)
		}
		srv.lotMu.Unlock()
		for _, e := range drained {
			srv.expire(e, time.Now())
		}
	}
}
