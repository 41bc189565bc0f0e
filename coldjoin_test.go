package uniint

// The cold-join frame on the wire tier: every session that joins a home
// ships its full frame as 64-row dictionary-zlib bands, and the shared
// TileCache memoises each band's body, so a band deflates once per
// distinct content, not once per connection (internal/rfb
// WireState.encodeDict, PreparedUpdate.encodeBands).
//
//	BenchmarkColdJoinEncode/hit          the cache already holds every band
//	BenchmarkColdJoinEncode/miss         a cache that has never seen one
//	BenchmarkColdJoinEncode/focus-moved  the cache holds the panel before
//	                                     one Tab; the join ships it after
//	BenchmarkColdJoinEncode/tab-between  one Tab rendered into the live
//	                                     display frame between two joins
//
// Their ns/op ratio is the encode layer's share of the cold-join gain;
// wirebytes/op is the update's size and deflates/op the bands deflated.
// focus-moved fails when a Tab deflates more than the bands it changed
// or the memo answers none of the others, which catches a fall back to
// whole-frame deflate. tab-between reports rowskeyed/op, the frame rows
// the join's content keys read, and fails when that exceeds the rows the
// Tab damaged: a join keys only what changed since the last one.
// TestColdJoinSharedMemo is the race-detector check that concurrent joins
// over one shared cache paint exactly what a server with its own cache
// paints, and TestColdJoinOwnMemo that a server given no cache, as
// uniintd's and NewSession's are, memoises its own joins' bands.

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
	d := standardHomeDisplay(b)
	bounds := gfx.R(0, 0, coldJoinW, coldJoinH)
	before := d.Snapshot(bounds)
	d.InjectKey(true, toolkit.KeyTab)
	d.InjectKey(false, toolkit.KeyTab)
	d.Render()
	after := d.Snapshot(bounds)
	conn := wireServerConn(b, coldJoinW, coldJoinH, wireBenchEncodings)
	full := []rfb.UpdateRect{{Rect: bounds, Encoding: rfb.EncAdaptive}}
	join := func(tiles *rfb.TileCache, frame *gfx.Framebuffer) int {
		prep, err := conn.PrepareUpdateWire(frame, full, rfb.NewWireState(tiles, coldJoinW, coldJoinH))
		if err != nil {
			b.Fatal(err)
		}
		defer prep.Release()
		return prep.Size()
	}
	picks := metrics.Default().Counter("rfb_dict_picks_total")
	hits := metrics.Default().Counter("rfb_dict_memo_hits_total")
	for _, bc := range []struct {
		name        string
		warm        *gfx.Framebuffer // what the cache shipped before the join
		fresh       bool             // each join gets a new cache, warmed again
		maxDeflates int64            // per join
		minHits     int64            // per join
	}{
		{"hit", after, false, 0, 1},
		{"miss", nil, true, (coldJoinH + 63) / 64, 0},
		// One Tab moves the focus ring off one widget and onto the next,
		// changing at most three of the eight bands; the memo answers the
		// rest. A whole-frame deflate is one miss and no hit.
		{"focus-moved", before, true, 3, 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tiles := rfb.NewTileCache(0)
			if bc.warm != nil {
				join(tiles, bc.warm)
			}
			var wire, deflates int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.fresh {
					b.StopTimer()
					tiles = rfb.NewTileCache(0)
					if bc.warm != nil {
						join(tiles, bc.warm)
					}
					b.StartTimer()
				}
				p0, h0 := picks.Value(), hits.Value()
				wire += int64(join(tiles, after))
				h := hits.Value() - h0
				d := picks.Value() - p0 - h
				if d > bc.maxDeflates || h < bc.minHits {
					b.Fatalf("the join deflated %d bands and took %d from the memo, want at most %d and at least %d",
						d, h, bc.maxDeflates, bc.minHits)
				}
				deflates += d
			}
			b.ReportMetric(float64(wire)/float64(b.N), "wirebytes/op")
			b.ReportMetric(float64(deflates)/float64(b.N), "deflates/op")
		})
	}
	b.Run("tab-between", func(b *testing.B) {
		keyed := metrics.Default().Counter("gfx_rows_keyed_total")
		tiles := rfb.NewTileCache(0)
		d.WithFramebuffer(func(fb *gfx.Framebuffer) { join(tiles, fb) })
		var wire, rows int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d.InjectKey(true, toolkit.KeyTab)
			d.InjectKey(false, toolkit.KeyTab)
			var hit [coldJoinH]bool
			damaged := int64(0)
			for _, r := range d.Render() {
				for y := max(r.Y, 0); y < min(r.MaxY(), coldJoinH); y++ {
					if !hit[y] {
						hit[y] = true
						damaged++
					}
				}
			}
			b.StartTimer()
			k0 := keyed.Value()
			d.WithFramebuffer(func(fb *gfx.Framebuffer) { wire += int64(join(tiles, fb)) })
			k := keyed.Value() - k0
			if k > damaged {
				b.Fatalf("the join keyed %d rows, the Tab damaged %d", k, damaged)
			}
			rows += k
		}
		b.ReportMetric(float64(wire)/float64(b.N), "wirebytes/op")
		b.ReportMetric(float64(rows)/float64(b.N), "rowskeyed/op")
	})
}

func TestColdJoinSharedMemo(t *testing.T) {
	const joins = 8
	d := standardHomeDisplay(t)
	full := gfx.R(0, 0, coldJoinW, coldJoinH)
	want := d.Snapshot(full)

	own := uniserver.New(d, "own cache", nil)
	t.Cleanup(own.Close)
	memo := uniserver.New(d, "memo", rfb.NewTileCache(0))
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

	ref, err := join(own)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.Close() })
	waitCond(t, "the own-cache session to show the home", shows(ref, want))
	owned := ref.Snapshot(full)

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
			waitCond(t, "a memoised join to match the own-cache session", shows(c, owned))
		}
	}
	if d := metrics.Default().Counter("rfb_dict_memo_hits_total").Value() - hits0; d < joins {
		t.Fatalf("%d memo hits over %d joins, want at least %d (the second wave)", d, 2*joins, joins)
	}
}

// rectCounts reports the rectangle count of every update a client applies.
type rectCounts chan int

func (c rectCounts) Updated(rects []gfx.Rect) { c <- len(rects) }
func (rectCounts) Bell()                      {}
func (rectCounts) CutText(string)             {}

// TestColdJoinOwnMemo: a server built with no tile store, the way uniintd
// and NewSession build one, has its own. A client that decodes dictionary
// zlib gets a cold join as bands, the server's memo answers every band of
// the second join at the same display state, and both decode to exactly
// the display. A client that does not decode it gets one rectangle.
func TestColdJoinOwnMemo(t *testing.T) {
	d := standardHomeDisplay(t)
	full := gfx.R(0, 0, coldJoinW, coldJoinH)
	want := d.Snapshot(full)
	srv := uniserver.New(d, "own memo", nil)
	t.Cleanup(srv.Close)
	hits := metrics.Default().Counter("rfb_dict_memo_hits_total")

	// join connects a client advertising encs, asks for the full frame and
	// returns how many rectangles it came in, once it has painted.
	join := func(encs []int32) int {
		t.Helper()
		sc, cc := net.Pipe()
		attached := make(chan struct{})
		go func() { defer close(attached); srv.Attach(sc) }()
		c, err := rfb.Dial(cc)
		if err != nil {
			t.Fatal(err)
		}
		counts := make(rectCounts, 1)
		ran := make(chan struct{})
		go func() { defer close(ran); c.Run(counts) }()
		defer func() { c.Close(); <-ran; <-attached }()
		if err := c.SetEncodings(encs); err != nil {
			t.Fatal(err)
		}
		if err := c.RequestUpdate(false, full); err != nil {
			t.Fatal(err)
		}
		n := <-counts
		if !c.Snapshot(full).Equal(want) {
			t.Fatalf("a join advertising %v decoded a frame other than the display's", encs)
		}
		return n
	}

	bands := (coldJoinH + 63) / 64
	for i := 0; i < 2; i++ {
		h0 := hits.Value()
		if n := join(wireBenchEncodings); n != bands {
			t.Fatalf("join %d came in %d rectangles, want %d bands", i, n, bands)
		}
		if got, want := hits.Value()-h0, int64(i*bands); got != want {
			t.Fatalf("join %d took %d bands from the memo, want %d", i, got, want)
		}
	}
	noDict := []int32{rfb.EncTileRef, rfb.EncTileInstall, rfb.EncHextile, rfb.EncRRE, rfb.EncZlib, rfb.EncCopyRect, rfb.EncRaw}
	if n := join(noDict); n != 1 {
		t.Fatalf("a client without dictionary zlib got %d rectangles, want 1", n)
	}
}
