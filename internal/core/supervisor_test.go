package core_test

import (
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uniint/internal/core"
	"uniint/internal/device"
	"uniint/internal/netsim"
	"uniint/internal/toolkit"
	"uniint/internal/uniserver"
)

// supervisedStack runs a server whose dial function hands out fresh
// shaped links, returning the current link for failure injection.
type supervisedStack struct {
	display *toolkit.Display
	srv     *uniserver.Server

	mu   sync.Mutex
	link *netsim.Conn
}

func newSupervisedStack(t *testing.T) *supervisedStack {
	t.Helper()
	st := &supervisedStack{
		display: toolkit.NewDisplay(640, 480),
	}
	st.srv = uniserver.New(st.display, "supervised", uniserver.Config{})
	t.Cleanup(st.srv.Close)
	return st
}

// dial is the Supervisor's DialFunc: each call builds a new pipe to the
// server and remembers the client side for DropLink.
func (st *supervisedStack) dial() (net.Conn, error) {
	sc, cc := net.Pipe()
	go st.srv.Attach(sc)
	link := netsim.Wrap(cc)
	st.mu.Lock()
	st.link = link
	st.mu.Unlock()
	return link, nil
}

func (st *supervisedStack) dropLink() {
	st.mu.Lock()
	link := st.link
	st.mu.Unlock()
	if link != nil {
		link.DropLink()
	}
}

func TestSupervisorReconnectsAndRestores(t *testing.T) {
	st := newSupervisedStack(t)
	_, clicks := buttonPanel(st.display, "Lamp")

	sup, err := core.NewSupervisor(st.dial)
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()

	phone := device.NewPhone("phone-1")
	tv := device.NewTVDisplay("tv-1")
	defer phone.Close()
	if err := sup.AttachInput(phone); err != nil {
		t.Fatal(err)
	}
	if err := sup.AttachOutput(tv); err != nil {
		t.Fatal(err)
	}
	if err := sup.SelectInput("phone-1"); err != nil {
		t.Fatal(err)
	}
	if err := sup.SelectOutput("tv-1"); err != nil {
		t.Fatal(err)
	}

	// Working session before the failure.
	phone.PressKey("ok")
	waitCond(t, "click before failure", func() bool { return clicks() == 1 })
	waitFrames(t, "frame before failure", tv.WaitFrames, 1)

	// The link dies.
	st.dropLink()
	waitCond(t, "reconnect", func() bool { return sup.Reconnects() == 1 })

	// The same devices keep working: selection was restored and the
	// device plug-ins were re-transmitted to the new proxy.
	deadline := time.Now().Add(2 * time.Second)
	for clicks() < 2 && time.Now().Before(deadline) {
		phone.PressKey("ok")
		time.Sleep(10 * time.Millisecond)
	}
	if clicks() < 2 {
		t.Fatal("input did not survive reconnect")
	}
	if sup.Proxy().ActiveInput() != "phone-1" || sup.Proxy().ActiveOutput() != "tv-1" {
		t.Errorf("selection not restored: in=%q out=%q",
			sup.Proxy().ActiveInput(), sup.Proxy().ActiveOutput())
	}
	if sup.LastError() == nil {
		t.Error("link failure should be recorded")
	}
}

func TestSupervisorSurvivesRepeatedFailures(t *testing.T) {
	st := newSupervisedStack(t)
	_, clicks := buttonPanel(st.display, "X")

	sup, err := core.NewSupervisor(st.dial)
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()

	remote := device.NewRemoteControl("rem-1")
	defer remote.Close()
	if err := sup.AttachInput(remote); err != nil {
		t.Fatal(err)
	}
	if err := sup.SelectInput("rem-1"); err != nil {
		t.Fatal(err)
	}

	for round := 1; round <= 3; round++ {
		st.dropLink()
		waitCond(t, "reconnect", func() bool { return sup.Reconnects() >= int64(round) })
	}
	// Still alive after three failures.
	before := clicks()
	deadline := time.Now().Add(2 * time.Second)
	for clicks() == before && time.Now().Before(deadline) {
		remote.Press("ok")
		time.Sleep(10 * time.Millisecond)
	}
	if clicks() == before {
		t.Fatal("session dead after repeated failures")
	}
}

func TestSupervisorCloseStopsReconnecting(t *testing.T) {
	st := newSupervisedStack(t)
	sup, err := core.NewSupervisor(st.dial)
	if err != nil {
		t.Fatal(err)
	}
	sup.Close()
	sup.Close() // idempotent
	if err := sup.AttachInput(device.NewPDA("p")); err == nil {
		t.Error("attach after close should fail")
	}
	n := sup.Reconnects()
	time.Sleep(30 * time.Millisecond)
	if sup.Reconnects() != n {
		t.Error("supervisor still reconnecting after close")
	}
}

func TestSupervisorWorksOverShapedLink(t *testing.T) {
	// A constrained home link: 5ms latency. The session stays usable.
	st := newSupervisedStack(t)
	_, clicks := buttonPanel(st.display, "X")

	dial := func() (net.Conn, error) {
		sc, cc := net.Pipe()
		go st.srv.Attach(sc)
		return netsim.Wrap(cc, netsim.WithLatency(5*time.Millisecond)), nil
	}
	sup, err := core.NewSupervisor(dial)
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	voice := device.NewVoiceInput("v-1")
	defer voice.Close()
	if err := sup.AttachInput(voice); err != nil {
		t.Fatal(err)
	}
	if err := sup.SelectInput("v-1"); err != nil {
		t.Fatal(err)
	}
	voice.Say("select")
	waitCond(t, "click over shaped link", func() bool { return clicks() == 1 })
}

// TestSupervisorResumesParkedSession: the reconnect after a link failure
// presents the session token, reclaims the parked server-side session
// and reports the resume.
func TestSupervisorResumesParkedSession(t *testing.T) {
	st := newSupervisedStack(t)
	_, clicks := buttonPanel(st.display, "Lamp")

	sup, err := core.NewSupervisor(st.dial)
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	phone := device.NewPhone("phone-1")
	defer phone.Close()
	if err := sup.AttachInput(phone); err != nil {
		t.Fatal(err)
	}
	if err := sup.SelectInput("phone-1"); err != nil {
		t.Fatal(err)
	}
	token := sup.Proxy().SessionToken()
	if token == "" {
		t.Fatal("no session token issued")
	}

	st.dropLink()
	waitCond(t, "reconnect", func() bool { return sup.Reconnects() == 1 })
	if got := sup.Resumes(); got != 1 {
		t.Fatalf("Resumes() = %d, want 1 (reconnect should reclaim the parked session)", got)
	}
	if !sup.Proxy().Resumed() {
		t.Fatal("proxy should report a resumed connection")
	}
	if got := sup.Proxy().SessionToken(); got != token {
		t.Fatalf("session re-keyed across resume: %q != %q", got, token)
	}

	// The session still works end to end.
	deadline := time.Now().Add(2 * time.Second)
	for clicks() < 1 && time.Now().Before(deadline) {
		phone.PressKey("ok")
		time.Sleep(10 * time.Millisecond)
	}
	if clicks() < 1 {
		t.Fatal("input dead after resume")
	}
}

// TestSupervisorRestoreSurvivesMidRestoreDeath: connections that die
// partway through restore (injected byte-budget kills truncating the
// restore traffic at varying offsets) must not half-apply selections —
// whenever the supervisor finally lands on a healthy link, both
// selections are in place and the session works.
func TestSupervisorRestoreSurvivesMidRestoreDeath(t *testing.T) {
	st := newSupervisedStack(t)
	_, clicks := buttonPanel(st.display, "Lamp")

	// Dial plan: first connection healthy; the next few die after a
	// seeded byte budget chosen to land inside handshake or restore;
	// then healthy again. The injector truncates the killing write.
	inj := netsim.NewInjector(netsim.FaultConfig{
		Seed:         11,
		DropAfterMin: 40,
		DropAfterMax: 400,
		Truncate:     true,
	})
	var dialCount atomic.Int64
	dial := func() (net.Conn, error) {
		n := dialCount.Add(1)
		sc, cc := net.Pipe()
		go st.srv.Attach(sc)
		link := netsim.Wrap(cc)
		if n >= 2 && n <= 4 {
			link = inj.Wrap(cc)
		}
		st.mu.Lock()
		st.link = link
		st.mu.Unlock()
		return link, nil
	}

	sup, err := core.NewSupervisor(dial, core.WithBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	phone := device.NewPhone("phone-1")
	tv := device.NewTVDisplay("tv-1")
	defer phone.Close()
	if err := sup.AttachInput(phone); err != nil {
		t.Fatal(err)
	}
	if err := sup.AttachOutput(tv); err != nil {
		t.Fatal(err)
	}
	if err := sup.SelectInput("phone-1"); err != nil {
		t.Fatal(err)
	}
	if err := sup.SelectOutput("tv-1"); err != nil {
		t.Fatal(err)
	}

	st.dropLink()
	// The supervisor chews through the faulty dials. A faulty link can
	// survive its own handshake and die later — keep pressing keys so
	// traffic burns every kill budget until a healthy link is up.
	deadline := time.Now().Add(5 * time.Second)
	for !(sup.Reconnects() >= 1 && dialCount.Load() >= 5) {
		if time.Now().After(deadline) {
			t.Fatalf("stuck: dials=%d reconnects=%d", dialCount.Load(), sup.Reconnects())
		}
		phone.PressKey("ok")
		time.Sleep(5 * time.Millisecond)
	}
	if sup.LastError() == nil {
		t.Error("mid-restore failures should populate LastError")
	}

	// No half-application: both selections present, never one without
	// the other, and the session is live.
	proxy := sup.Proxy()
	if in, out := proxy.ActiveInput(), proxy.ActiveOutput(); in != "phone-1" || out != "tv-1" {
		t.Fatalf("selections half-applied: in=%q out=%q", in, out)
	}
	before := clicks()
	deadline = time.Now().Add(2 * time.Second)
	for clicks() == before && time.Now().Before(deadline) {
		phone.PressKey("ok")
		time.Sleep(10 * time.Millisecond)
	}
	if clicks() == before {
		t.Fatal("session dead after mid-restore failures")
	}
}

// failRestoreConn lets the handshake through and fails the restore: the
// one 20-byte type-0 message a client ever writes is the SetPixelFormat of
// the output renegotiation, restore's last step.
type failRestoreConn struct{ net.Conn }

func (c failRestoreConn) Write(p []byte) (int, error) {
	if len(p) == 20 && p[0] == 0 {
		c.Conn.Close()
		return 0, errors.New("link died mid-restore")
	}
	return c.Conn.Write(p)
}

// TestSupervisorBackoffIsForFailure: the first redial after a link dies is
// immediate — a dead link is no evidence the server is gone — and the
// back-off spaces only the attempts that follow a failure, whether the
// dial, the handshake or the restore failed.
func TestSupervisorBackoffIsForFailure(t *testing.T) {
	const backoff = 150 * time.Millisecond
	st := newSupervisedStack(t)
	var mu sync.Mutex
	var dials []time.Time
	dial := func() (net.Conn, error) {
		mu.Lock()
		dials = append(dials, time.Now())
		n := len(dials)
		mu.Unlock()
		switch n {
		case 2: // first redial: the dial itself fails
			return nil, errors.New("no route")
		case 3: // second: connects, resumes, dies in restore
			conn, err := st.dial()
			return failRestoreConn{conn}, err
		}
		return st.dial()
	}
	sup, err := core.NewSupervisor(dial, core.WithBackoff(backoff))
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	if err := sup.AttachOutput(device.NewTVDisplay("tv-1")); err != nil {
		t.Fatal(err)
	}
	if err := sup.SelectOutput("tv-1"); err != nil {
		t.Fatal(err)
	}

	dropped := time.Now()
	st.dropLink()
	waitCond(t, "reconnect", func() bool { return sup.Reconnects() == 1 })
	mu.Lock()
	defer mu.Unlock()
	if len(dials) != 4 {
		t.Fatalf("%d dials, want 4 (connect, failed dial, failed restore, success)", len(dials))
	}
	if gap := dials[1].Sub(dropped); gap >= backoff {
		t.Errorf("first redial came %v after the link died: it waited out the %v back-off", gap, backoff)
	}
	if gap := dials[2].Sub(dials[1]); gap < backoff {
		t.Errorf("redial %v after a failed dial, want >= %v", gap, backoff)
	}
	if gap := dials[3].Sub(dials[2]); gap < backoff {
		t.Errorf("redial %v after a failed restore, want >= %v", gap, backoff)
	}
	if err := sup.LastError(); err == nil || !strings.Contains(err.Error(), "mid-restore") {
		t.Errorf("LastError = %v, want the restore failure of the third dial", err)
	}
}
