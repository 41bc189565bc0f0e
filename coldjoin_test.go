package uniint

// The cold-join frame on the wire tier: every session that joins a home
// at one display state ships the same full frame as dictionary zlib, and
// the shared TileCache memoises that body so it deflates once per state,
// not once per connection (internal/rfb WireState.encodeDict).
//
//	BenchmarkColdJoinEncode/hit   the cache already holds the frame's body
//	BenchmarkColdJoinEncode/miss  a cache that has never seen it
//
// Their ns/op ratio is the encode layer's share of the cold-join gain.
// TestColdJoinSharedMemo is the race-detector check that concurrent joins
// over one cache paint exactly what an uncached session paints.

import (
	"net"
	"sync"
	"testing"

	"uniint/internal/appliance"
	"uniint/internal/gfx"
	"uniint/internal/homeapp"
	"uniint/internal/metrics"
	"uniint/internal/rfb"
	"uniint/internal/toolkit"
	"uniint/internal/uniserver"
)

const coldJoinW, coldJoinH = 640, 480

// standardHomeDisplay renders the StandardHome control panel at the hub's
// geometry and waits until the GUI has settled.
func standardHomeDisplay(tb testing.TB) *toolkit.Display {
	tb.Helper()
	home, err := appliance.StandardHome()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(home.Close)
	d := toolkit.NewDisplay(coldJoinW, coldJoinH)
	app := homeapp.New(home.Network(), d)
	tb.Cleanup(app.Close)
	home.Network().WaitIdle()
	d.Render()
	return d
}

func BenchmarkColdJoinEncode(b *testing.B) {
	frame := standardHomeDisplay(b).Snapshot(gfx.R(0, 0, coldJoinW, coldJoinH))
	conn := wireServerConn(b, coldJoinW, coldJoinH, wireBenchEncodings)
	full := []rfb.UpdateRect{{Rect: frame.Bounds(), Encoding: rfb.EncAdaptive}}
	join := func(tiles *rfb.TileCache) {
		prep, err := conn.PrepareUpdateWire(frame, full, rfb.NewWireState(tiles, coldJoinW, coldJoinH))
		if err != nil {
			b.Fatal(err)
		}
		prep.Release()
	}
	for _, hit := range []bool{true, false} {
		name := "miss"
		if hit {
			name = "hit"
		}
		b.Run(name, func(b *testing.B) {
			shared := rfb.NewTileCache(0)
			join(shared) // the first join at this display state pays the deflate
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if hit {
					join(shared)
				} else {
					join(rfb.NewTileCache(0))
				}
			}
		})
	}
}

func TestColdJoinSharedMemo(t *testing.T) {
	const joins = 8
	d := standardHomeDisplay(t)
	full := gfx.R(0, 0, coldJoinW, coldJoinH)
	want := d.Snapshot(full)

	plain := uniserver.New(d, "uncached", uniserver.Config{})
	t.Cleanup(plain.Close)
	memo := uniserver.New(d, "memo", uniserver.Config{Tiles: rfb.NewTileCache(0)})
	t.Cleanup(memo.Close)

	// join connects a client the way the proxy does and asks for the full
	// frame; the caller waits for it to paint.
	join := func(srv *uniserver.Server) (*rfb.ClientConn, error) {
		sc, cc := net.Pipe()
		go srv.Attach(sc)
		c, err := rfb.Dial(cc)
		if err != nil {
			return nil, err
		}
		go c.Run(nopHandler{})
		if err := c.SetEncodings(wireBenchEncodings); err != nil {
			return nil, err
		}
		return c, c.RequestUpdate(false, full)
	}
	shows := func(c *rfb.ClientConn, fb *gfx.Framebuffer) func() bool {
		return func() bool { return c.Snapshot(full).Equal(fb) }
	}

	ref, err := join(plain)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.Close() })
	waitCond(t, "the uncached session to show the home", shows(ref, want))
	uncached := ref.Snapshot(full)

	// Two waves of concurrent joins: the first races misses and Puts on
	// the one cache, the second finds the body memoised.
	hits0 := metrics.Default().Counter("rfb_dict_memo_hits_total").Value()
	for wave := 0; wave < 2; wave++ {
		clients := make([]*rfb.ClientConn, joins)
		errs := make([]error, joins)
		var wg sync.WaitGroup
		for i := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				clients[i], errs[i] = join(memo)
			}()
		}
		wg.Wait()
		for i, c := range clients {
			if errs[i] != nil {
				t.Fatalf("wave %d join %d: %v", wave, i, errs[i])
			}
			t.Cleanup(func() { c.Close() })
			waitCond(t, "a memoised join to match the uncached session", shows(c, uncached))
		}
	}
	if d := metrics.Default().Counter("rfb_dict_memo_hits_total").Value() - hits0; d < joins {
		t.Fatalf("%d memo hits over %d joins, want at least %d (the second wave)", d, 2*joins, joins)
	}
}
