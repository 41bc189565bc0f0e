package rfb

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"uniint/internal/gfx"
)

// testServerHandler records everything the server-side read loop delivers.
type testServerHandler struct {
	mu       sync.Mutex
	keys     []KeyEvent
	pointers []PointerEvent
	requests []UpdateRequest
	cuts     []string
	gotReq   chan struct{}
	gotKey   chan struct{}
}

func newTestServerHandler() *testServerHandler {
	return &testServerHandler{
		gotReq: make(chan struct{}, 16),
		gotKey: make(chan struct{}, 16),
	}
}

func (h *testServerHandler) KeyEvent(ev KeyEvent) {
	h.mu.Lock()
	h.keys = append(h.keys, ev)
	h.mu.Unlock()
	h.gotKey <- struct{}{}
}

func (h *testServerHandler) PointerEvent(ev PointerEvent) {
	h.mu.Lock()
	h.pointers = append(h.pointers, ev)
	h.mu.Unlock()
}

func (h *testServerHandler) UpdateRequest(req UpdateRequest) {
	h.mu.Lock()
	h.requests = append(h.requests, req)
	h.mu.Unlock()
	h.gotReq <- struct{}{}
}

func (h *testServerHandler) CutText(s string) {
	h.mu.Lock()
	h.cuts = append(h.cuts, s)
	h.mu.Unlock()
}

// testClientHandler records update notifications.
type testClientHandler struct {
	mu      sync.Mutex
	updates [][]gfx.Rect
	bells   int
	gotUpd  chan struct{}
}

func newTestClientHandler() *testClientHandler {
	return &testClientHandler{gotUpd: make(chan struct{}, 16)}
}

func (h *testClientHandler) Updated(rects []gfx.Rect) {
	// The slice is reused by the read loop; copy to retain (the
	// ClientHandler contract).
	cp := make([]gfx.Rect, len(rects))
	copy(cp, rects)
	h.mu.Lock()
	h.updates = append(h.updates, cp)
	h.mu.Unlock()
	h.gotUpd <- struct{}{}
}

func (h *testClientHandler) Bell() {
	h.mu.Lock()
	h.bells++
	h.mu.Unlock()
}

func (h *testClientHandler) CutText(string) {}

// pipePair builds a connected server/client pair over net.Pipe, with both
// read loops running. Cleanup is registered on t.
func pipePair(t *testing.T, w, h int) (*ServerConn, *ClientConn, *testServerHandler, *testClientHandler) {
	t.Helper()
	sc, cc := net.Pipe()
	var (
		server *ServerConn
		serr   error
		wg     sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		server, serr = NewEdgeServerConn(sc, w, h, "test desktop", nil)
	}()
	client, cerr := Dial(cc)
	wg.Wait()
	if serr != nil {
		t.Fatalf("server handshake: %v", serr)
	}
	if cerr != nil {
		t.Fatalf("client handshake: %v", cerr)
	}

	sh := newTestServerHandler()
	ch := newTestClientHandler()
	done := make(chan struct{}, 2)
	go func() { server.Serve(sh); done <- struct{}{} }()
	go func() { client.Run(ch); done <- struct{}{} }()
	t.Cleanup(func() {
		server.Close()
		client.Close()
		for i := 0; i < 2; i++ {
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Error("read loop did not exit")
				return
			}
		}
	})
	return server, client, sh, ch
}

// sendUpdate ships the given rectangles of fb (clipped to it, adaptively
// encoded) as one FramebufferUpdate.
func sendUpdate(s *ServerConn, fb *gfx.Framebuffer, rects ...gfx.Rect) error {
	var urs []UpdateRect
	for _, r := range rects {
		if r = r.Intersect(fb.Bounds()); !r.Empty() {
			urs = append(urs, UpdateRect{Rect: r, Encoding: EncAdaptive})
		}
	}
	return sendRects(s, fb, urs)
}

// preferredEncoding is the encoding non-adaptive rectangles fall back to.
func preferredEncoding(s *ServerConn) int32 {
	s.smu.Lock()
	defer s.smu.Unlock()
	return s.preferredLocked()
}

// sendRects ships urs of fb as one FramebufferUpdate, against a fresh wire
// model: one that assumes nothing of what the client holds.
func sendRects(s *ServerConn, fb *gfx.Framebuffer, urs []UpdateRect) error {
	prep, err := s.PrepareUpdateWire(fb, urs, NewWireState(NewTileCache(0), fb.W(), fb.H()))
	if err != nil {
		return err
	}
	return s.SendPrepared(prep)
}

// sinkConn is a transport that takes and counts every byte written to it.
type sinkConn struct {
	net.Conn
	n int64
}

func (c *sinkConn) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// TestSendPreparedAllocatesNothing pins every hub session's flush at zero
// allocations: the message and rectangle headers are appended into the
// pooled write buffer, the byte count comes from the prepared size, and
// the empty reply needs no heap literal. BytesSent matches what reached
// the transport.
func TestSendPreparedAllocatesNothing(t *testing.T) {
	sink := &sinkConn{}
	s := &ServerConn{conn: sink, pf: gfx.PF32(), width: 64, height: 48}
	fb := gfx.NewFramebuffer(64, 48)
	fb.Fill(gfx.R(8, 8, 16, 16), gfx.RGB(200, 40, 40))
	urs := []UpdateRect{
		{Rect: gfx.R(0, 0, 64, 16), Encoding: EncRaw},
		{Rect: gfx.R(8, 8, 16, 16), Encoding: EncRaw},
	}
	ws := NewWireState(NewTileCache(0), 64, 48)
	send := func() {
		prep, err := s.PrepareUpdateWire(fb, urs, ws)
		if err == nil {
			err = s.SendPrepared(prep)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SendEmptyUpdate(); err != nil {
			t.Fatal(err)
		}
	}
	send()
	if got := s.BytesSent(); got != sink.n {
		t.Fatalf("BytesSent = %d, transport took %d", got, sink.n)
	}
	if raceEnabled {
		return // pooled write buffers are dropped on purpose under -race
	}
	if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
		t.Errorf("SendPrepared + SendEmptyUpdate = %.1f allocs/op, want 0", allocs)
	}
}

func waitSig(t *testing.T, ch chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

func TestHandshake(t *testing.T) {
	_, client, _, _ := pipePair(t, 320, 240)
	if client.Name() != "test desktop" {
		t.Errorf("name = %q", client.Name())
	}
	w, h := client.Size()
	if w != 320 || h != 240 {
		t.Errorf("size = %dx%d", w, h)
	}
}

func TestKeyAndPointerFlow(t *testing.T) {
	_, client, sh, _ := pipePair(t, 100, 100)
	if err := client.WriteEvents([]InputEvent{{Key: KeyEvent{Down: true, Key: KeyReturn}}}); err != nil {
		t.Fatal(err)
	}
	waitSig(t, sh.gotKey, "key event")
	if err := client.WriteEvents([]InputEvent{{IsPointer: true, Pointer: PointerEvent{Buttons: 1, X: 10, Y: 20}}}); err != nil {
		t.Fatal(err)
	}
	if err := client.WriteEvents([]InputEvent{{Key: KeyEvent{Down: false, Key: KeyReturn}}}); err != nil {
		t.Fatal(err)
	}
	waitSig(t, sh.gotKey, "key release")

	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.keys) != 2 || sh.keys[0].Key != KeyReturn || !sh.keys[0].Down || sh.keys[1].Down {
		t.Errorf("keys = %+v", sh.keys)
	}
	if len(sh.pointers) != 1 || sh.pointers[0].X != 10 || sh.pointers[0].Y != 20 || !sh.pointers[0].Pressed(0) {
		t.Errorf("pointers = %+v", sh.pointers)
	}
}

func TestUpdateRequestAndUpdateDelivery(t *testing.T) {
	server, client, sh, ch := pipePair(t, 64, 64)

	if err := client.SetEncodings([]int32{EncHextile, EncRaw}); err != nil {
		t.Fatal(err)
	}
	if err := client.RequestUpdate(false, gfx.R(0, 0, 64, 64)); err != nil {
		t.Fatal(err)
	}
	waitSig(t, sh.gotReq, "update request")

	sh.mu.Lock()
	req := sh.requests[0]
	sh.mu.Unlock()
	if req.Incremental || req.Region != gfx.R(0, 0, 64, 64) {
		t.Errorf("request = %+v", req)
	}
	// Wait for the SetEncodings to land (it shares the ordered stream with
	// the request we already observed, so it has landed).
	if got := preferredEncoding(server); got != EncHextile {
		t.Errorf("preferred encoding = %s", EncodingName(got))
	}

	fb := makeGUIFrame(64, 64)
	if err := sendUpdate(server, fb, fb.Bounds()); err != nil {
		t.Fatal(err)
	}
	waitSig(t, ch.gotUpd, "framebuffer update")

	shadow := client.Snapshot(gfx.R(0, 0, 64, 64))
	if !shadow.Equal(fb) {
		t.Error("shadow framebuffer does not match server content")
	}
	if client.UpdatesReceived() != 1 {
		t.Errorf("updates received = %d, want 1", client.UpdatesReceived())
	}
	if server.BytesReceived() == 0 || server.BytesSent() == 0 {
		t.Error("byte counters not tracking")
	}
}

func TestPixelFormatSwitch(t *testing.T) {
	server, client, _, ch := pipePair(t, 32, 32)
	if err := client.SetPixelFormat(gfx.PF16()); err != nil {
		t.Fatal(err)
	}
	// Order a full update; the server must have seen the new format by the
	// time it processes a later message, so send the request after.
	if err := client.RequestUpdate(false, gfx.R(0, 0, 32, 32)); err != nil {
		t.Fatal(err)
	}
	fb := gfx.NewFramebuffer(32, 32)
	fb.Clear(gfx.RGB(200, 100, 50))
	// Give the server read loop a moment to apply SetPixelFormat.
	deadline := time.Now().Add(time.Second)
	for server.PixelFormat().BitsPerPixel != 16 {
		if time.Now().After(deadline) {
			t.Fatal("server never saw pixel format change")
		}
		time.Sleep(time.Millisecond)
	}
	if err := sendUpdate(server, fb, fb.Bounds()); err != nil {
		t.Fatal(err)
	}
	waitSig(t, ch.gotUpd, "16bpp update")
	got := client.Snapshot(gfx.R(0, 0, 1, 1)).At(0, 0)
	want := gfx.PF16().Decode(gfx.PF16().Encode(gfx.RGB(200, 100, 50)))
	if got != want {
		t.Errorf("16bpp round trip = %06x, want %06x", got, want)
	}
	// 16bpp payload should be roughly half of 32bpp.
	if server.BytesSent() > 3000 {
		t.Errorf("16bpp update used %d bytes", server.BytesSent())
	}
}

func TestCopyRectMessage(t *testing.T) {
	server, client, _, ch := pipePair(t, 32, 32)
	fb := gfx.NewFramebuffer(32, 32)
	fb.Fill(gfx.R(0, 0, 8, 8), gfx.Red)
	if err := sendUpdate(server, fb, fb.Bounds()); err != nil {
		t.Fatal(err)
	}
	waitSig(t, ch.gotUpd, "initial update")
	// Move the red square to (16,16) via CopyRect only.
	if err := sendRects(server, fb, []UpdateRect{{
		Rect: gfx.R(16, 16, 8, 8), Encoding: EncCopyRect, CopySrcX: 0, CopySrcY: 0,
	}}); err != nil {
		t.Fatal(err)
	}
	waitSig(t, ch.gotUpd, "copyrect update")
	if got := client.Snapshot(gfx.R(16, 16, 1, 1)).At(0, 0); got != gfx.Red {
		t.Errorf("copyrect target = %06x", got)
	}
}

// TestSelfCopyIsNotDamage pins the client's rule for a self-CopyRect, the
// server's "this changed nothing" (a device switch's answer): it is neither
// applied nor reported. An update of only self-copies leaves the shadow's
// generation alone and reports no rectangles; a displaced copy in the same
// update as self-copies is applied and reported as before.
func TestSelfCopyIsNotDamage(t *testing.T) {
	server, client, _, ch := pipePair(t, 32, 32)
	fb := gfx.NewFramebuffer(32, 32)
	fb.Fill(gfx.R(0, 0, 8, 8), gfx.Red)
	if err := sendUpdate(server, fb, fb.Bounds()); err != nil {
		t.Fatal(err)
	}
	waitSig(t, ch.gotUpd, "initial update")
	gen := func() (g uint64) {
		client.WithFramebuffer(func(fb *gfx.Framebuffer) { g = fb.Gen() })
		return g
	}
	gen0 := gen()

	full := UpdateRect{Rect: fb.Bounds(), Encoding: EncCopyRect}
	part := UpdateRect{Rect: gfx.R(4, 4, 8, 8), Encoding: EncCopyRect, CopySrcX: 4, CopySrcY: 4}
	moved := UpdateRect{Rect: gfx.R(16, 16, 8, 8), Encoding: EncCopyRect}
	var gens []uint64
	for _, urs := range [][]UpdateRect{{full}, {full, moved, part}} {
		if err := sendRects(server, fb, urs); err != nil {
			t.Fatal(err)
		}
		waitSig(t, ch.gotUpd, "copyrect update")
		gens = append(gens, gen())
	}
	if gens[0] != gen0 || gens[1] == gen0 {
		t.Errorf("shadow generation %d, then %d after self-copies and %d after a displaced one: want it to move only on the last", gen0, gens[0], gens[1])
	}
	ch.mu.Lock()
	switchAnswer, mixed := ch.updates[1], ch.updates[2]
	ch.mu.Unlock()
	if len(switchAnswer) != 0 {
		t.Errorf("a full-bounds self-copy reported %v, want no rectangles", switchAnswer)
	}
	if len(mixed) != 1 || mixed[0] != moved.Rect {
		t.Errorf("self-copies around a displaced copy reported %v, want only %v", mixed, moved.Rect)
	}
	if got := client.Snapshot(gfx.R(16, 16, 1, 1)).At(0, 0); got != gfx.Red {
		t.Errorf("displaced copy target = %06x, want red", got)
	}
}

func TestBellAndCutText(t *testing.T) {
	server, client, sh, ch := pipePair(t, 16, 16)
	// The server never rings; the client's decoder faces a peer that may.
	if _, err := server.conn.Write([]byte{msgBell}); err != nil {
		t.Fatal(err)
	}
	// Nor does the client paste; its server's decoder faces a peer that may.
	text := "hello appliances"
	cut := append(be.AppendUint32([]byte{msgClientCutText, 0, 0, 0}, uint32(len(text))), text...)
	if _, err := client.conn.Write(cut); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for {
		sh.mu.Lock()
		cuts := len(sh.cuts)
		sh.mu.Unlock()
		ch.mu.Lock()
		bells := ch.bells
		ch.mu.Unlock()
		if cuts == 1 && bells == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cuts=%d bells=%d", cuts, bells)
		}
		time.Sleep(time.Millisecond)
	}
	sh.mu.Lock()
	if sh.cuts[0] != "hello appliances" {
		t.Errorf("cut text = %q", sh.cuts[0])
	}
	sh.mu.Unlock()
}

func TestHandshakeRejectsBadVersion(t *testing.T) {
	sc, cc := net.Pipe()
	done := make(chan error, 1)
	go func() {
		_, err := NewEdgeServerConn(sc, 10, 10, "x", nil)
		done <- err
	}()
	// Read the server version then answer garbage.
	buf := make([]byte, len(ProtocolVersion))
	if _, err := io.ReadFull(cc, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Write([]byte("GARBAGE 9.99\n"[:len(ProtocolVersion)])); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrBadVersion) {
			t.Errorf("err = %v, want ErrBadVersion", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("handshake did not fail")
	}
	cc.Close()
}

func TestServeRejectsUnknownMessage(t *testing.T) {
	server, client, _, _ := pipePair(t, 16, 16)
	_ = server
	// Inject a bogus message type directly.
	client.wmu.Lock()
	client.bw.Write([]byte{0xEE})
	client.bw.Flush()
	client.wmu.Unlock()
	// The server read loop exits via cleanup; nothing to assert beyond not
	// hanging — covered by pipePair's cleanup timeout.
}

func TestServerCutTextToClient(t *testing.T) {
	server, _, _, ch := pipePair(t, 16, 16)
	// ServerCutText: type, 3 padding, u32 length, text — written as literal
	// bytes, since this server never sends one. The recorder discards the
	// text, but the message must not desync the stream: a bell after it
	// still arrives.
	msg := append([]byte{msgServerCutText, 0, 0, 0, 0, 0, 0, 11}, "from server"...)
	if _, err := server.conn.Write(append(msg, msgBell)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for {
		ch.mu.Lock()
		bells := ch.bells
		ch.mu.Unlock()
		if bells == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream desynced after cut text")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMidStreamPixelFormatSwitchNoDesync(t *testing.T) {
	// The generation-tagged format switch: stream many updates while
	// flipping formats; every update must decode under the format it was
	// encoded with, and the connection must stay alive.
	server, client, sh, ch := pipePair(t, 64, 64)
	fb := makeGUIFrame(64, 64)

	formats := []gfx.PixelFormat{gfx.PF32(), gfx.PF16(), gfx.PF8(), gfx.PF16()}
	for round, pf := range formats {
		if err := client.SetPixelFormat(pf); err != nil {
			t.Fatal(err)
		}
		if err := client.RequestUpdate(false, gfx.R(0, 0, 64, 64)); err != nil {
			t.Fatal(err)
		}
		waitSig(t, sh.gotReq, "request")
		if err := sendUpdate(server, fb, fb.Bounds()); err != nil {
			t.Fatal(err)
		}
		waitSig(t, ch.gotUpd, "update")
		// Shadow content matches the format's quantization.
		want := quantize(fb, pf)
		got := client.Snapshot(gfx.R(0, 0, 64, 64))
		if !got.Equal(want) {
			t.Fatalf("round %d: shadow mismatch under %dbpp", round, pf.BitsPerPixel)
		}
	}
	if client.UpdatesReceived() != int64(len(formats)) {
		t.Errorf("updates = %d", client.UpdatesReceived())
	}
	// WithFramebuffer exposes the decoded shadow.
	saw := false
	client.WithFramebuffer(func(f *gfx.Framebuffer) { saw = f.W() == 64 })
	if !saw {
		t.Error("WithFramebuffer broken")
	}
	if client.BytesSent() == 0 || client.BytesReceived() == 0 {
		t.Error("client byte counters not tracking")
	}
}

func TestEncodingNames(t *testing.T) {
	names := map[int32]string{
		EncRaw: "raw", EncCopyRect: "copyrect", EncRRE: "rre",
		EncHextile: "hextile", EncZlib: "zlib", 99: "enc(99)",
	}
	for enc, want := range names {
		if got := EncodingName(enc); got != want {
			t.Errorf("EncodingName(%d) = %q, want %q", enc, got, want)
		}
	}
}
