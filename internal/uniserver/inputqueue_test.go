package uniserver

import (
	"sync"
	"testing"

	"uniint/internal/gfx"
	"uniint/internal/metrics"
	"uniint/internal/rfb"
	"uniint/internal/toolkit"
)

// depth returns the number of queued events.
func (q *inputQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf)
}

func mv(x, y int, buttons uint8) inputEvent {
	return inputEvent{pointer: true, move: true,
		ptr: rfb.PointerEvent{Buttons: buttons, X: uint16(x), Y: uint16(y)}}
}

func trans(x, y int, buttons uint8) inputEvent {
	return inputEvent{pointer: true,
		ptr: rfb.PointerEvent{Buttons: buttons, X: uint16(x), Y: uint16(y)}}
}

func key(k uint32, down bool) inputEvent {
	return inputEvent{key: rfb.KeyEvent{Down: down, Key: k}}
}

// TestInputQueueCoalescesMoves pins the queue semantics: runs of pure
// moves collapse latest-wins, while transitions and keys are kept in
// order with their own payloads.
func TestInputQueueCoalescesMoves(t *testing.T) {
	var q inputQueue
	q.put(mv(1, 1, 0))
	q.put(mv(2, 2, 0)) // coalesces into previous
	q.put(mv(3, 3, 0)) // coalesces again
	q.put(trans(4, 4, 1))
	q.put(mv(5, 5, 1)) // drag move: new run (tail is a transition)
	q.put(mv(6, 6, 1)) // coalesces
	q.put(key('k', true))
	q.put(mv(7, 7, 1)) // run broken by the key: kept
	q.put(trans(7, 7, 0))

	batch := q.take()
	want := []inputEvent{
		mv(3, 3, 0), trans(4, 4, 1), mv(6, 6, 1), key('k', true), mv(7, 7, 1), trans(7, 7, 0),
	}
	if len(batch) != len(want) {
		t.Fatalf("batch = %d events, want %d: %+v", len(batch), len(want), batch)
	}
	for i := range want {
		got := batch[i]
		got.enq = 0
		if got != want[i] {
			t.Errorf("event %d: want %+v got %+v", i, want[i], got)
		}
	}
}

// TestInputQueueBoundEvictsMovesNotSemantics: at the bound, the queue
// reclaims space by dropping the oldest *historical* pure move
// (semantically a coalesce); key events, button transitions and the
// pointer's latest position are never evicted — semantic overflow is
// kept past the bound and counted instead.
func TestInputQueueBoundEvictsMovesNotSemantics(t *testing.T) {
	overflow0 := metrics.Default().Counter("input_queue_overflow_total").Value()
	var q inputQueue
	// Two position runs separated by a key, then semantic traffic up to
	// the bound. Alternate key codes so nothing coalesces.
	q.put(mv(9, 9, 0)) // historical run
	q.put(key(1, true))
	q.put(mv(8, 8, 0)) // the pointer's latest position
	for i := 3; i < inputQueueBound; i++ {
		q.put(key(uint32(i), true))
	}
	if got := q.depth(); got != inputQueueBound {
		t.Fatalf("depth = %d, want %d", got, inputQueueBound)
	}
	// The next key evicts the historical move instead of dropping
	// anything semantic — depth stays at the bound.
	q.put(key('z', true))
	if got := q.depth(); got != inputQueueBound {
		t.Fatalf("depth after evicting put = %d, want %d", got, inputQueueBound)
	}
	// With only the latest position left, semantic puts must spare it:
	// the queue grows past the bound and counts overflow instead.
	q.put(key('y', true))
	if got := q.depth(); got != inputQueueBound+1 {
		t.Fatalf("depth after overflow put = %d, want %d", got, inputQueueBound+1)
	}
	if d := metrics.Default().Counter("input_queue_overflow_total").Value() - overflow0; d != 1 {
		t.Errorf("overflow delta = %d, want 1", d)
	}
	batch := q.take()
	var moves []inputEvent
	for _, ev := range batch {
		if ev.pointer {
			moves = append(moves, ev)
		}
	}
	if len(moves) != 1 || moves[0].ptr.X != 8 {
		t.Errorf("surviving moves = %+v, want only the latest position (8,8)", moves)
	}
	if batch[len(batch)-1].key.Key != 'y' {
		t.Errorf("last event = %+v, want key 'y'", batch[len(batch)-1])
	}
}

// TestInputQueueHardCapShedsCounted: a semantic flood against a dead
// dispatcher is bounded — at the hard cap further events are shed and
// counted, so one hostile session cannot grow memory without bound.
func TestInputQueueHardCapShedsCounted(t *testing.T) {
	dropped0 := metrics.Default().Counter("input_dropped_total").Value()
	var q inputQueue
	for i := 0; i < inputQueueHardCap+500; i++ {
		q.put(key(uint32(i), true))
	}
	if got := q.depth(); got != inputQueueHardCap {
		t.Errorf("depth = %d, want hard cap %d", got, inputQueueHardCap)
	}
	if d := metrics.Default().Counter("input_dropped_total").Value() - dropped0; d != 500 {
		t.Errorf("dropped delta = %d, want 500", d)
	}
}

// TestTeardownZeroesQueueDepth: a session dying with events still queued
// must not leave a permanent residue in the input_queue_depth gauge; on a
// closing server the leftovers are counted as abandoned (a link that
// merely drops carries them into the detach lot instead — lot_test.go).
func TestTeardownZeroesQueueDepth(t *testing.T) {
	display, srv, client, _ := wire(t)
	block := make(chan struct{})
	unblock := sync.OnceFunc(func() { close(block) })
	defer unblock()
	entered := make(chan struct{}, 1)
	btn := toolkit.NewButton("stall", func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-block
	})
	root := toolkit.NewPanel(toolkit.VBox{Gap: 2, Padding: 2})
	root.Add(btn)
	display.SetRoot(root)
	display.Render()

	snap := func(name string) int64 { return metrics.Default().Counter(name).Value() }
	depth := metrics.Default().Gauge("input_queue_depth")
	depth0 := depth.Value()
	queued0 := snap("input_queued_total")
	dispatched0 := snap("input_dispatched_total")
	coalesced0 := snap("input_coalesced_total")
	dropped0 := snap("input_dropped_total")
	abandoned0 := snap("input_abandoned_total")

	// Stall the dispatcher inside the click, then pile up key events the
	// session will never dispatch.
	b := btn.Bounds()
	sendPointer(client, rfb.PointerEvent{Buttons: 1, X: uint16(b.X + 2), Y: uint16(b.Y + 2)})
	sendPointer(client, rfb.PointerEvent{Buttons: 0, X: uint16(b.X + 2), Y: uint16(b.Y + 2)})
	<-entered
	for i := 0; i < 50; i++ {
		if err := sendKey(client, rfb.KeyEvent{Down: i%2 == 0, Key: uint32('a' + i%20)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "events queued", func() bool { return depth.Value() > depth0 })

	// Close the server with the queue still loaded, then let the stalled
	// callback return: the dispatcher sees quit, the session retires (it
	// stays in the session set until its goroutines unwind), whatever the
	// dispatcher did not reach is abandoned, and the depth gauge returns
	// to baseline. Close waits out the stalled turn, so it runs aside.
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	waitFor(t, "server closing", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.closed
	})
	unblock()
	<-closed
	if srv.Sessions() != 0 {
		t.Fatal("session outlived Close")
	}
	waitFor(t, "depth gauge restored", func() bool { return depth.Value() == depth0 })
	// The accounting identity at depth == 0: every queued event ended in
	// exactly one bucket — dispatched before quit won the race, or
	// abandoned at retirement. Nothing is silently lost either way.
	queued := snap("input_queued_total") - queued0
	settled := (snap("input_dispatched_total") - dispatched0) +
		(snap("input_coalesced_total") - coalesced0) +
		(snap("input_dropped_total") - dropped0) +
		(snap("input_abandoned_total") - abandoned0)
	if queued == 0 || queued != settled {
		t.Errorf("accounting identity broken: queued %d, settled %d", queued, settled)
	}
}

// TestInputQueueSteadyStateAllocFree pins the alloc-free drain contract:
// once warmed, put/take/recycle cycles allocate nothing.
func TestInputQueueSteadyStateAllocFree(t *testing.T) {
	var q inputQueue
	cycle := func() {
		q.put(trans(1, 1, 1))
		for i := 0; i < 30; i++ {
			q.put(mv(i, i, 1))
		}
		q.put(trans(2, 2, 0))
		q.put(key('k', true))
		q.recycle(q.take())
	}
	cycle() // warm the ping-pong storage
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("allocs per put/dispatch cycle = %v, want 0", allocs)
	}
}

// TestStalledDispatchDoesNotBlockReadLoop is the input-side sibling of
// the toolkit's encode-doesn't-block-input test: with the dispatcher
// stalled inside a widget callback (a slow home app holding the display
// lock mid HAVi round-trip), the protocol read loop must keep draining
// pointer floods, key events and framebuffer requests, coalescing moves
// under the backpressure.
func TestStalledDispatchDoesNotBlockReadLoop(t *testing.T) {
	display, _, client, _ := wire(t)
	block := make(chan struct{})
	var mu sync.Mutex
	clicks := 0
	btn := toolkit.NewButton("slow appliance", func() {
		mu.Lock()
		clicks++
		mu.Unlock()
		<-block // the appliance stalls with the display lock held
	})
	root := toolkit.NewPanel(toolkit.VBox{Gap: 2, Padding: 2})
	root.Add(btn)
	display.SetRoot(root)
	display.Render()

	snap := func(name string) int64 { return metrics.Default().Counter(name).Value() }
	ptr0 := snap("server_pointer_events_total")
	key0 := snap("server_key_events_total")
	coal0 := snap("input_coalesced_total")
	disp0 := snap("input_dispatched_total")

	b := btn.Bounds()
	x, y := uint16(b.X+2), uint16(b.Y+2)
	// Click: the release dispatch enters the callback and stalls.
	if err := sendPointer(client, rfb.PointerEvent{Buttons: 1, X: x, Y: y}); err != nil {
		t.Fatal(err)
	}
	if err := sendPointer(client, rfb.PointerEvent{Buttons: 0, X: x, Y: y}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "callback entered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return clicks == 1
	})

	// Flood the stalled session. Every event must be read and queued
	// while dispatch is frozen.
	const moves = 200
	for i := 0; i < moves; i++ {
		if err := sendPointer(client, rfb.PointerEvent{Buttons: 0, X: uint16(i), Y: y}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sendKey(client, rfb.KeyEvent{Down: true, Key: rfb.KeyTab}); err != nil {
		t.Fatal(err)
	}
	// Framebuffer requests are read and parked without blocking either.
	for i := 0; i < 4; i++ {
		if err := client.RequestUpdate(true, gfx.R(0, 0, 160, 120)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "read loop drains flood while dispatch stalled", func() bool {
		return snap("server_pointer_events_total")-ptr0 >= moves+2 &&
			snap("server_key_events_total")-key0 >= 1
	})
	// Backpressure coalesced the move flood down to O(1) pending entries.
	if got := snap("input_coalesced_total") - coal0; got < moves-10 {
		t.Errorf("coalesced = %d, want ≈%d (flood must collapse)", got, moves-1)
	}

	close(block)           // appliance recovers; the queue drains in order
	const sent = moves + 3 // press, release, flood, Tab
	waitFor(t, "queue drained", func() bool {
		drained := snap("input_dispatched_total") - disp0 + snap("input_coalesced_total") - coal0
		return drained >= sent
	})
	mu.Lock()
	if clicks != 1 {
		t.Errorf("clicks = %d after recovery", clicks)
	}
	mu.Unlock()
}

// TestInputToUpdateLatencyObserved pins the end-to-end histogram: an
// input-driven repaint must record a sample in input_to_update_seconds.
func TestInputToUpdateLatencyObserved(t *testing.T) {
	display, _, client, rec := wire(t)
	btn := toolkit.NewButton("go", nil)
	root := toolkit.NewPanel(toolkit.VBox{Gap: 2, Padding: 2})
	root.Add(btn)
	display.SetRoot(root)
	display.Render()

	hist := metrics.Default().Histogram("input_to_update_seconds", metrics.LatencyBuckets())
	count0 := hist.Count()

	client.RequestUpdate(false, gfx.R(0, 0, 160, 120))
	waitFor(t, "initial update", func() bool {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return rec.updates >= 1
	})
	client.RequestUpdate(true, gfx.R(0, 0, 160, 120))
	b := btn.Bounds()
	sendPointer(client, rfb.PointerEvent{Buttons: 1, X: uint16(b.X + 2), Y: uint16(b.Y + 2)})
	waitFor(t, "input-driven update", func() bool {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return rec.updates >= 2
	})
	waitFor(t, "latency sample", func() bool { return hist.Count() > count0 })
}

// TestDispatchRunsOffReadLoop sanity-checks ordering across the queue: a
// mixed burst written in one WriteEvents batch lands on the widget tree
// in wire order.
func TestDispatchRunsOffReadLoop(t *testing.T) {
	display, _, client, _ := wire(t)
	var mu sync.Mutex
	var order []string
	mk := func(name string) *toolkit.Button {
		return toolkit.NewButton(name, func() { mu.Lock(); order = append(order, name); mu.Unlock() })
	}
	first, second := mk("first"), mk("second")
	root := toolkit.NewPanel(toolkit.VBox{Gap: 2, Padding: 2})
	root.Add(first, second)
	display.SetRoot(root)
	display.Render()

	click := func(b gfx.Rect) []rfb.InputEvent {
		x, y := uint16(b.X+2), uint16(b.Y+2)
		return []rfb.InputEvent{
			{IsPointer: true, Pointer: rfb.PointerEvent{Buttons: 1, X: x, Y: y}},
			{IsPointer: true, Pointer: rfb.PointerEvent{Buttons: 0, X: x, Y: y}},
		}
	}
	burst := append(click(first.Bounds()), click(second.Bounds())...)
	if err := client.WriteEvents(burst); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "both clicks dispatched", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) == 2
	})
	mu.Lock()
	defer mu.Unlock()
	if order[0] != "first" || order[1] != "second" {
		t.Errorf("dispatch order = %v", order)
	}
}
