package netsim

import (
	"io"
	"net"
	"testing"
	"time"
)

func TestPassthrough(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	go a.Write([]byte("hello"))
	buf := make([]byte, 5)
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Errorf("got %q", buf)
	}
}

func TestLatencyShaping(t *testing.T) {
	a, b := Pipe(WithLatency(20 * time.Millisecond))
	defer a.Close()
	defer b.Close()
	start := time.Now()
	go a.Write([]byte("x"))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Errorf("latency not applied: %v", elapsed)
	}
}

func TestDropLink(t *testing.T) {
	a, b := Pipe()
	defer b.Close()
	a.DropLink()
	if !a.Dropped() {
		t.Fatal("link should report dropped")
	}
	if _, err := a.Write([]byte("x")); err == nil {
		t.Error("write after drop should fail")
	}
	// The peer's reads fail too (inner transport closed).
	buf := make([]byte, 1)
	if _, err := b.Read(buf); err == nil {
		t.Error("peer read after drop should fail")
	}
	a.DropLink() // idempotent
}

// TestReadShapingSymmetric is the regression test for the asymmetric-link
// bug: only Write used to be shaped, so a singly-wrapped connection
// delayed egress but delivered ingress instantly. A Wrap-ped conn must
// now delay both directions.
func TestReadShapingSymmetric(t *testing.T) {
	inner, peer := net.Pipe()
	c := Wrap(inner, WithLatency(20*time.Millisecond))
	defer c.Close()
	defer peer.Close()

	// Ingress: the unshaped peer writes, the wrapped side reads — the
	// delay must appear on delivery.
	go peer.Write([]byte("x"))
	start := time.Now()
	buf := make([]byte, 1)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Errorf("read direction not shaped: %v", elapsed)
	}

	// Egress still shaped as before.
	done := make(chan struct{})
	go func() { io.ReadFull(peer, buf); close(done) }()
	start = time.Now()
	if _, err := c.Write([]byte("y")); err != nil {
		t.Fatal(err)
	}
	<-done
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Errorf("write direction not shaped: %v", elapsed)
	}
}

// TestPipeShapesOncePerDirection pins the complementary property: a Pipe
// (both ends wrapped) applies the configured latency exactly once per
// transfer, not once at the writer and again at the reader.
func TestPipeShapesOncePerDirection(t *testing.T) {
	a, b := Pipe(WithLatency(20 * time.Millisecond))
	defer a.Close()
	defer b.Close()
	go a.Write([]byte("x"))
	start := time.Now()
	buf := make([]byte, 1)
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 15*time.Millisecond {
		t.Errorf("latency not applied: %v", elapsed)
	}
	if elapsed > 38*time.Millisecond {
		t.Errorf("latency applied twice (double shaping): %v", elapsed)
	}
}

func TestInjectorDeterministicDrop(t *testing.T) {
	run := func() (int64, int) {
		in := NewInjector(FaultConfig{Seed: 7, DropAfterMin: 10, DropAfterMax: 40})
		inner, peer := net.Pipe()
		defer peer.Close()
		c := in.Wrap(inner)
		defer c.Close()
		go io.Copy(io.Discard, peer)
		total := 0
		for i := 0; i < 100; i++ {
			n, err := c.Write([]byte("0123456789"))
			total += n
			if err != nil {
				break
			}
		}
		return in.ScheduledDrops(), total
	}
	drops1, total1 := run()
	drops2, total2 := run()
	if drops1 != 1 || total1 >= 1000 {
		t.Fatalf("scheduled drop did not fire: drops=%d total=%d", drops1, total1)
	}
	if drops1 != drops2 || total1 != total2 {
		t.Errorf("injector not deterministic: (%d,%d) vs (%d,%d)", drops1, total1, drops2, total2)
	}
}

func TestInjectorHandshakeDrop(t *testing.T) {
	in := NewInjector(FaultConfig{Seed: 3, HandshakeDropEvery: 2, HandshakeBytes: 16})
	for i := 1; i <= 4; i++ {
		inner, peer := net.Pipe()
		c := in.Wrap(inner)
		go io.Copy(io.Discard, peer)
		_, err := c.Write(make([]byte, 64)) // larger than the handshake window
		if i%2 == 0 && err == nil {
			t.Errorf("conn %d: expected handshake-window drop", i)
		}
		if i%2 == 1 && err != nil {
			t.Errorf("conn %d: unexpected drop: %v", i, err)
		}
		c.Close()
		peer.Close()
	}
}

func TestInjectorTruncateOnKill(t *testing.T) {
	in := NewInjector(FaultConfig{Seed: 1, DropAfterMin: 5, DropAfterMax: 5, Truncate: true})
	inner, peer := net.Pipe()
	defer peer.Close()
	c := in.Wrap(inner)
	defer c.Close()

	got := make(chan int, 1)
	go func() {
		buf := make([]byte, 16)
		n, _ := io.ReadFull(peer, buf)
		got <- n
	}()
	n, err := c.Write(make([]byte, 16))
	if err == nil {
		t.Fatal("killing write should report the failure")
	}
	if n != 5 {
		t.Errorf("truncated write reported %d bytes, want 5", n)
	}
	if delivered := <-got; delivered != 5 {
		t.Errorf("peer received %d bytes, want the 5-byte prefix", delivered)
	}
}

// TestInjectorJitterDeterministic compares what two same-seed injectors
// schedule, not how long they slept: the draw is the deterministic part.
func TestInjectorJitterDeterministic(t *testing.T) {
	schedule := func() (ds [8]time.Duration) {
		inner, peer := net.Pipe()
		defer inner.Close()
		defer peer.Close()
		c := NewInjector(FaultConfig{Seed: 9, Jitter: 4 * time.Millisecond}).Wrap(inner)
		for i := range ds {
			ds[i] = c.scheduled()
		}
		return ds
	}
	d1, d2 := schedule(), schedule()
	if d1 != d2 {
		t.Errorf("jitter not deterministic: %v vs %v", d1, d2)
	}
	if d1 == [8]time.Duration{} {
		t.Fatal("jitter scheduled no delay")
	}
}

func TestConnInterface(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	var _ net.Conn = a
	if a.LocalAddr() == nil || a.RemoteAddr() == nil {
		t.Error("addresses should pass through")
	}
	if err := a.SetDeadline(time.Now().Add(time.Second)); err != nil {
		t.Errorf("deadline: %v", err)
	}
}
