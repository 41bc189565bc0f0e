package rfb

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"

	"uniint/internal/gfx"
)

// scriptedPipe returns the server end of a net.Pipe whose client end
// writes script and then drains whatever the server sends. drained closes
// the pipe and returns those bytes.
func scriptedPipe(t *testing.T, script []byte) (server net.Conn, drained func() []byte) {
	t.Helper()
	client, server := net.Pipe()
	var out bytes.Buffer
	done := make(chan struct{})
	go client.Write(script) // a failure surfaces in the server's handshake
	go func() {
		defer close(done)
		io.Copy(&out, client)
	}()
	drained = func() []byte {
		server.Close()
		client.Close()
		<-done
		return out.Bytes()
	}
	t.Cleanup(func() { drained() })
	return server, drained
}

// edgeHandshake runs the server half of a handshake against a scripted
// client hello and returns the connection and the client's drain.
func edgeHandshake(t *testing.T, token string, ex TokenExchange) (func() []byte, *ServerConn) {
	t.Helper()
	server, drained := scriptedPipe(t, ClientHello(token))
	sc, err := NewEdgeServerConn(server, 160, 120, "edge test", ex)
	if err != nil {
		t.Fatal(err)
	}
	return drained, sc
}

func TestEdgeHandshake(t *testing.T) {
	var presented string
	drained, sc := edgeHandshake(t, "tok-123", func(p string) (string, bool) {
		presented = p
		return "issued-456", true
	})
	if presented != "tok-123" {
		t.Fatalf("presented token %q", presented)
	}
	if sc.token != "issued-456" || !sc.Resumed() {
		t.Fatalf("token %q resumed %v", sc.token, sc.Resumed())
	}
	// The client end received the server's complete handshake output,
	// ending in the resumed verdict and the issued token.
	if out := drained(); !bytes.HasSuffix(out, []byte("\x01\x0aissued-456")) {
		t.Fatalf("server handshake output %q", out)
	}
}

// clientMsgs builds a byte script of client messages for Feed tests.
func clientMsgs() []byte {
	var b []byte
	// SetEncodings: raw only.
	b = append(b, msgSetEncodings, 0, 0, 1)
	b = append(b, 0, 0, 0, byte(EncRaw))
	// KeyEvent down 'a' (0x61).
	b = append(b, msgKeyEvent, 1, 0, 0, 0, 0, 0, 0x61)
	// PointerEvent buttons=1 at (10, 20).
	b = append(b, msgPointerEvent, 1, 0, 10, 0, 20)
	// FramebufferRequest incremental over (1,2)-(3,4).
	b = append(b, msgFramebufferRequest, 1, 0, 1, 0, 2, 0, 3, 0, 4)
	// ClientCutText "hi".
	b = append(b, msgClientCutText, 0, 0, 0, 0, 0, 0, 2, 'h', 'i')
	return b
}

func checkFeedResults(t *testing.T, h *testServerHandler) {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.keys) != 1 || !h.keys[0].Down || h.keys[0].Key != 0x61 {
		t.Errorf("keys = %+v", h.keys)
	}
	if len(h.pointers) != 1 || h.pointers[0].X != 10 || h.pointers[0].Y != 20 || h.pointers[0].Buttons != 1 {
		t.Errorf("pointers = %+v", h.pointers)
	}
	if len(h.requests) != 1 || !h.requests[0].Incremental || h.requests[0].Region != gfx.R(1, 2, 3, 4) {
		t.Errorf("requests = %+v", h.requests)
	}
	if len(h.cuts) != 1 || h.cuts[0] != "hi" {
		t.Errorf("cuts = %+v", h.cuts)
	}
}

func TestFeedParsesWholeScript(t *testing.T) {
	_, sc := edgeHandshake(t, "", nil)
	h := newTestServerHandler()
	if err := sc.Feed(clientMsgs(), h); err != nil {
		t.Fatal(err)
	}
	checkFeedResults(t, h)
	if got := preferredEncoding(sc); got != EncRaw {
		t.Errorf("preferred encoding = %d", got)
	}
}

func TestFeedByteByByte(t *testing.T) {
	// Every message boundary lands mid-feed: the partial-message retention
	// path must reassemble the identical stream.
	_, sc := edgeHandshake(t, "", nil)
	h := newTestServerHandler()
	for _, c := range clientMsgs() {
		if err := sc.Feed([]byte{c}, h); err != nil {
			t.Fatal(err)
		}
	}
	checkFeedResults(t, h)
}

func TestFeedPipelinedPastHandshake(t *testing.T) {
	// Messages written before the server handshake even ran are retained
	// by the handshake reader drain and parsed by the first Feed.
	server, _ := scriptedPipe(t, append(ClientHello(""), clientMsgs()...))
	sc, err := NewEdgeServerConn(server, 160, 120, "edge test", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	h := newTestServerHandler()
	if err := sc.Feed(nil, h); err != nil {
		t.Fatal(err)
	}
	checkFeedResults(t, h)
}

func TestFeedTraceContextAndPixelFormat(t *testing.T) {
	_, sc := edgeHandshake(t, "", nil)
	h := newTestServerHandler()
	var b []byte
	b = append(b, msgTraceContext)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 42) // trace id
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 7)  // client send time
	// SetPixelFormat to 16bpp.
	b = append(b, msgSetPixelFormat, 0, 0, 0)
	pfb := make([]byte, 16)
	pf := gfx.PF16()
	pfb[0] = pf.BitsPerPixel
	pfb[1] = pf.Depth
	if pf.BigEndian {
		pfb[2] = 1
	}
	pfb[3] = 1 // true color
	be.PutUint16(pfb[4:], pf.RedMax)
	be.PutUint16(pfb[6:], pf.GreenMax)
	be.PutUint16(pfb[8:], pf.BlueMax)
	pfb[10], pfb[11], pfb[12] = pf.RedShift, pf.GreenShift, pf.BlueShift
	b = append(b, pfb...)
	if err := sc.Feed(b, h); err != nil {
		t.Fatal(err)
	}
	if id, at := sc.TakeTraceContext(); id != 42 || at != 7 {
		t.Errorf("trace context = %d, %d", id, at)
	}
	if got := sc.PixelFormat(); got.BitsPerPixel != 16 {
		t.Errorf("pixel format bpp = %d", got.BitsPerPixel)
	}
}

func TestFeedRejectsUnknownMessage(t *testing.T) {
	_, sc := edgeHandshake(t, "", nil)
	if err := sc.Feed([]byte{0xEE}, newTestServerHandler()); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("err = %v, want ErrBadMessage", err)
	}
}

func TestFeedReleasesHighWaterBuffer(t *testing.T) {
	// A maximum-size cut text straddling two feeds grows the retention
	// buffer to ~1 MB; once drained, that capacity must not stay pinned to
	// the (idle) session.
	_, sc := edgeHandshake(t, "", nil)
	h := newTestServerHandler()
	const n = 1 << 20
	msg := append([]byte{msgClientCutText, 0, 0, 0, 0, 0x10, 0, 0}, make([]byte, n)...)
	if err := sc.Feed(msg[:len(msg)/2], h); err != nil {
		t.Fatal(err)
	}
	if cap(sc.feed) < len(msg)/2 {
		t.Fatalf("partial message not retained: cap %d", cap(sc.feed))
	}
	if err := sc.Feed(msg[len(msg)/2:], h); err != nil {
		t.Fatal(err)
	}
	if len(h.cuts) != 1 || len(h.cuts[0]) != n {
		t.Fatalf("cut text not delivered: %d calls", len(h.cuts))
	}
	if cap(sc.feed) > readBufSize {
		t.Errorf("drained feed buffer still pins %d bytes (read buffer is %d)", cap(sc.feed), readBufSize)
	}
	// The parser keeps working on the released buffer, partials included.
	if err := sc.Feed(clientMsgs()[:12], h); err != nil {
		t.Fatal(err)
	}
	if err := sc.Feed(clientMsgs()[12:], h); err != nil {
		t.Fatal(err)
	}
	if len(h.keys) != 1 || len(h.cuts) != 2 {
		t.Errorf("after release: keys %d cuts %d", len(h.keys), len(h.cuts))
	}
}
