package havi

import (
	"errors"
	"sync"
	"testing"
)

func testControls() []Control {
	return []Control{
		{ID: "power", Label: "Power", Kind: ControlToggle},
		{ID: "volume", Label: "Volume", Kind: ControlRange, Min: 0, Max: 100, Init: 25},
		{ID: "mute", Label: "Mute", Kind: ControlToggle},
		{ID: "play", Label: "Play", Kind: ControlAction},
		{ID: "counter", Label: "Counter", Kind: ControlReadout},
		{ID: "input", Label: "Input", Kind: ControlSelect, Options: []string{"tuner", "aux"}},
	}
}

func TestSEIDString(t *testing.T) {
	id := SEID{GUID: 0xAB, Handle: 3}
	if got := id.String(); got != "00000000000000ab/3" {
		t.Errorf("String = %q", got)
	}
}

func TestDispatcherOrderAndIdle(t *testing.T) {
	d := newDispatcher()
	defer d.stop()
	var mu sync.Mutex
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		d.post(func() {
			mu.Lock()
			got = append(got, i)
			mu.Unlock()
		})
	}
	d.waitIdle()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 100 {
		t.Fatalf("executed %d of 100", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order violated at %d: %d", i, v)
		}
	}
}

func TestDispatcherStopRejectsPosts(t *testing.T) {
	d := newDispatcher()
	d.stop()
	if d.post(func() {}) {
		t.Error("post after stop should fail")
	}
	d.stop() // double-stop must be safe
}

func TestBaseFCMValidation(t *testing.T) {
	if _, err := NewBaseFCM("x", []Control{{ID: "", Kind: ControlToggle}}); err == nil {
		t.Error("empty control id should fail")
	}
	if _, err := NewBaseFCM("x", []Control{{ID: "r", Kind: ControlRange, Min: 5, Max: 1}}); err == nil {
		t.Error("inverted range should fail")
	}
	if _, err := NewBaseFCM("x", []Control{{ID: "s", Kind: ControlSelect}}); err == nil {
		t.Error("select without options should fail")
	}
	if _, err := NewBaseFCM("x", []Control{
		{ID: "a", Kind: ControlToggle}, {ID: "a", Kind: ControlToggle},
	}); err == nil {
		t.Error("duplicate ids should fail")
	}
}

func TestBaseFCMGetSetDo(t *testing.T) {
	f, err := NewBaseFCM("test", testControls())
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := f.Get("volume"); v != 25 {
		t.Errorf("init volume = %d", v)
	}
	if err := f.Set("volume", 60); err != nil {
		t.Fatal(err)
	}
	if v, _ := f.Get("volume"); v != 60 {
		t.Errorf("volume = %d", v)
	}
	// Range violations.
	if err := f.Set("volume", 101); !errors.Is(err, ErrBadValue) {
		t.Errorf("over-max err = %v", err)
	}
	if err := f.Set("volume", -1); !errors.Is(err, ErrBadValue) {
		t.Errorf("under-min err = %v", err)
	}
	// Toggle accepts only 0/1.
	if err := f.Set("power", 2); !errors.Is(err, ErrBadValue) {
		t.Errorf("toggle=2 err = %v", err)
	}
	if err := f.Set("power", 1); err != nil {
		t.Fatal(err)
	}
	// Readout is read-only.
	if err := f.Set("counter", 5); !errors.Is(err, ErrReadOnly) {
		t.Errorf("readout set err = %v", err)
	}
	// Action must go through Do.
	if err := f.Set("play", 1); !errors.Is(err, ErrNotAction) {
		t.Errorf("action set err = %v", err)
	}
	if err := f.Do("volume"); !errors.Is(err, ErrNotAction) {
		t.Errorf("do on range err = %v", err)
	}
	if err := f.Do("nope"); !errors.Is(err, ErrUnknownControl) {
		t.Errorf("do unknown err = %v", err)
	}
	// Select bounds.
	if err := f.Set("input", 2); !errors.Is(err, ErrBadValue) {
		t.Errorf("select out of range err = %v", err)
	}
	if err := f.Set("input", 1); err != nil {
		t.Fatal(err)
	}
}

func TestBaseFCMHooks(t *testing.T) {
	f, err := NewBaseFCM("vcr", testControls())
	if err != nil {
		t.Fatal(err)
	}
	f.SetHooks(
		func(f *BaseFCM, id string, v int) error {
			// Power must be on before anything else changes.
			if id != "power" && f.GetLocked("power") == 0 {
				return ErrRejected
			}
			return nil
		},
		func(f *BaseFCM, id string) error {
			if f.GetLocked("power") == 0 {
				return ErrRejected
			}
			f.SetLockedInternal("counter", f.GetLocked("counter")+1)
			return nil
		},
	)
	if err := f.Set("volume", 10); !errors.Is(err, ErrRejected) {
		t.Errorf("set with power off = %v", err)
	}
	if err := f.Do("play"); !errors.Is(err, ErrRejected) {
		t.Errorf("do with power off = %v", err)
	}
	if err := f.Set("power", 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Do("play"); err != nil {
		t.Fatal(err)
	}
	if v, _ := f.Get("counter"); v != 1 {
		t.Errorf("counter = %d", v)
	}
}

func TestFCMChangeEvents(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	f, _ := NewBaseFCM("amp", testControls())
	d := NewDCM("Living Amp", "amplifier")
	d.AddFCM(f)
	if _, err := n.Attach(d); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var events []Event
	n.Events().Subscribe(EventFCMChanged, func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	if err := f.Set("volume", 42); err != nil {
		t.Fatal(err)
	}
	// Setting to the same value must not fire again.
	if err := f.Set("volume", 42); err != nil {
		t.Fatal(err)
	}
	n.WaitIdle()

	mu.Lock()
	defer mu.Unlock()
	if len(events) != 1 {
		t.Fatalf("events = %+v", events)
	}
	if events[0].Key != "volume" || events[0].Value != 42 || events[0].Source != f.SEID() {
		t.Errorf("event = %+v", events[0])
	}
}

func TestMessageSystemCallAndSend(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	f, _ := NewBaseFCM("amp", testControls())
	d := NewDCM("Amp", "amplifier")
	d.AddFCM(f)
	if _, err := n.Attach(d); err != nil {
		t.Fatal(err)
	}

	// Describe over the message system.
	rep, err := n.Messages().Call(Message{Dst: f.SEID(), Op: OpDescribe})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Str != "amp" {
		t.Errorf("kind = %q", rep.Str)
	}
	ctls, err := UnmarshalControls(rep.Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(ctls) != len(testControls()) {
		t.Errorf("controls = %d", len(ctls))
	}

	// Set then get through messages.
	if _, err := n.Messages().Call(Message{Dst: f.SEID(), Op: OpSet, Key: "volume", Value: 77}); err != nil {
		t.Fatal(err)
	}
	rep, err = n.Messages().Call(Message{Dst: f.SEID(), Op: OpGet, Key: "volume"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Value != 77 {
		t.Errorf("volume via message = %d", rep.Value)
	}

	// Async send.
	if err := n.Messages().Send(Message{Dst: f.SEID(), Op: OpSet, Key: "volume", Value: 5}); err != nil {
		t.Fatal(err)
	}
	n.WaitIdle()
	if v, _ := f.Get("volume"); v != 5 {
		t.Errorf("async volume = %d", v)
	}

	// Unknown destination and op.
	if _, err := n.Messages().Call(Message{Dst: SEID{GUID: 99, Handle: 99}, Op: OpGet}); !errors.Is(err, ErrUnknownElement) {
		t.Errorf("unknown dst err = %v", err)
	}
	if _, err := n.Messages().Call(Message{Dst: f.SEID(), Op: "bogus"}); !errors.Is(err, ErrUnknownOp) {
		t.Errorf("unknown op err = %v", err)
	}
}

func TestRegistryQuery(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	for i, class := range []string{"tv", "vcr", "tv"} {
		f, _ := NewBaseFCM("dummy", testControls())
		d := NewDCM(class+"-dev", class)
		d.AddFCM(f)
		if _, err := n.Attach(d); err != nil {
			t.Fatalf("attach %d: %v", i, err)
		}
	}
	dcms := n.Registry().Query(map[string]string{"type": "dcm"})
	if len(dcms) != 3 {
		t.Fatalf("dcms = %d", len(dcms))
	}
	tvs := n.Registry().Query(map[string]string{"type": "dcm", "class": "tv"})
	if len(tvs) != 2 {
		t.Fatalf("tvs = %d", len(tvs))
	}
	all := n.Registry().Query(nil)
	if len(all) != 6 { // 3 DCMs + 3 FCMs
		t.Fatalf("all = %d", len(all))
	}
	// Results are sorted by SEID.
	for i := 1; i < len(all); i++ {
		a, b := all[i-1].SEID, all[i].SEID
		if a.GUID > b.GUID || (a.GUID == b.GUID && a.Handle >= b.Handle) {
			t.Fatal("query results not sorted")
		}
	}
}

func TestRegistryReturnsCopies(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	d := NewDCM("TV", "tv")
	if _, err := n.Attach(d); err != nil {
		t.Fatal(err)
	}
	got := n.Registry().Query(map[string]string{"type": "dcm"})
	got[0].Attrs["name"] = "EVIL"
	again := n.Registry().Query(map[string]string{"type": "dcm"})
	if again[0].Attrs["name"] != "TV" {
		t.Error("registry state was mutated through a query result")
	}
}

func TestAttachDetachLifecycle(t *testing.T) {
	n := NewNetwork()
	defer n.Close()

	var mu sync.Mutex
	counts := map[string]int{}
	n.Events().Subscribe("", func(ev Event) {
		mu.Lock()
		counts[ev.Type]++
		mu.Unlock()
	})

	f, _ := NewBaseFCM("tuner", testControls())
	d := NewDCM("TV", "tv")
	d.AddFCM(f)
	guid, err := n.Attach(d)
	if err != nil {
		t.Fatal(err)
	}
	n.WaitIdle()
	if n.Registry().Count() != 2 {
		t.Fatalf("registry count after attach = %d", n.Registry().Count())
	}
	if !n.Messages().Lookup(f.SEID()) {
		t.Fatal("FCM not registered with message system")
	}

	// Double attach of an online device must fail.
	if _, err := n.Attach(d); err == nil {
		t.Fatal("double attach should fail")
	}

	n.Detach(guid)
	n.WaitIdle()
	if n.Registry().Count() != 0 {
		t.Fatalf("registry count after detach = %d", n.Registry().Count())
	}
	if n.Messages().Lookup(f.SEID()) {
		t.Fatal("FCM still registered after detach")
	}

	// Re-attach with the same GUID (device replugged).
	if _, err := n.Attach(d); err != nil {
		t.Fatal(err)
	}
	n.WaitIdle()
	if n.Registry().Count() != 2 {
		t.Fatalf("registry count after re-attach = %d", n.Registry().Count())
	}

	mu.Lock()
	defer mu.Unlock()
	if counts[EventDeviceAttached] != 2 || counts[EventDeviceDetached] != 1 {
		t.Errorf("attach/detach events = %d/%d", counts[EventDeviceAttached], counts[EventDeviceDetached])
	}
	if counts[EventBusReset] != 3 {
		t.Errorf("bus resets = %d, want 3", counts[EventBusReset])
	}
}

func TestRegistryWatch(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	var mu sync.Mutex
	var changes []Change
	id := n.Registry().Watch(func(c Change) {
		mu.Lock()
		changes = append(changes, c)
		mu.Unlock()
	})
	d := NewDCM("Lamp", "lamp")
	guid, _ := n.Attach(d)
	n.Detach(guid)
	n.WaitIdle()

	mu.Lock()
	if len(changes) != 2 || changes[0].Kind != EntryAdded || changes[1].Kind != EntryRemoved {
		t.Errorf("changes = %+v", changes)
	}
	mu.Unlock()

	n.Registry().Unwatch(id)
	if _, err := n.Attach(d); err != nil {
		t.Fatal(err)
	}
	n.WaitIdle()
	mu.Lock()
	if len(changes) != 2 {
		t.Error("unwatched watcher still fired")
	}
	mu.Unlock()
}

func TestEventSubscribeByType(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	var mu sync.Mutex
	var typed, all int
	n.Events().Subscribe(EventBusReset, func(Event) {
		mu.Lock()
		typed++
		mu.Unlock()
	})
	subAll := n.Events().Subscribe("", func(Event) {
		mu.Lock()
		all++
		mu.Unlock()
	})
	n.Events().Post(Event{Type: EventBusReset})
	n.Events().Post(Event{Type: EventFCMChanged})
	n.WaitIdle()
	mu.Lock()
	if typed != 1 || all != 2 {
		t.Errorf("typed=%d all=%d", typed, all)
	}
	mu.Unlock()
	n.Events().Unsubscribe(subAll)
	n.Events().Post(Event{Type: EventFCMChanged})
	n.WaitIdle()
	mu.Lock()
	if all != 2 {
		t.Error("unsubscribed handler fired")
	}
	mu.Unlock()
}

func TestNetworkCloseIsIdempotentAndFinal(t *testing.T) {
	n := NewNetwork()
	d := NewDCM("TV", "tv")
	if _, err := n.Attach(d); err != nil {
		t.Fatal(err)
	}
	n.Close()
	n.Close() // must not panic or deadlock
	if _, err := n.Attach(NewDCM("X", "tv")); !errors.Is(err, ErrClosed) {
		t.Errorf("attach after close = %v", err)
	}
}

func TestConcurrentFCMAccess(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	f, _ := NewBaseFCM("amp", testControls())
	d := NewDCM("Amp", "amplifier")
	d.AddFCM(f)
	if _, err := n.Attach(d); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = f.Set("volume", (g*200+i)%101)
				_, _ = f.Get("volume")
				_, _ = n.Messages().Call(Message{Dst: f.SEID(), Op: OpGet, Key: "volume"})
			}
		}()
	}
	wg.Wait()
	n.WaitIdle()
	v, err := f.Get("volume")
	if err != nil || v < 0 || v > 100 {
		t.Errorf("final volume = %d, %v", v, err)
	}
}
