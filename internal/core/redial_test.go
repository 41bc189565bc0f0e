package core_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uniint/internal/core"
	"uniint/internal/device"
	"uniint/internal/leakcheck"
	"uniint/internal/netsim"
	"uniint/internal/rfb"
	"uniint/internal/toolkit"
	"uniint/internal/uniserver"
)

// redialStack runs a server whose dial function hands out fresh
// shaped links, returning the current link for failure injection.
type redialStack struct {
	display *toolkit.Display
	srv     *uniserver.Server

	mu   sync.Mutex
	link *netsim.Conn
}

func newRedialStack(t *testing.T) *redialStack {
	t.Helper()
	st := &redialStack{
		display: toolkit.NewDisplay(640, 480),
	}
	st.srv = uniserver.New(st.display, "redial", nil)
	t.Cleanup(st.srv.Close)
	return st
}

// dial is the proxy's DialFunc: each call builds a new pipe to the server
// and remembers the client side for DropLink.
func (st *redialStack) dial() (net.Conn, error) {
	sc, cc := net.Pipe()
	go st.srv.Attach(sc)
	link := netsim.Wrap(cc)
	st.mu.Lock()
	st.link = link
	st.mu.Unlock()
	return link, nil
}

func (st *redialStack) dropLink() {
	st.mu.Lock()
	link := st.link
	st.mu.Unlock()
	if link != nil {
		link.DropLink()
	}
}

func TestSupervisorReconnectsAndRestores(t *testing.T) {
	leakcheck.Check(t, 0)
	st := newRedialStack(t)
	_, clicks := buttonPanel(st.display, "Lamp")

	proxy, err := core.Connect(st.dial)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	phone := device.NewPhone("phone-1")
	tv := device.NewTVDisplay("tv-1")
	defer phone.Close()
	if err := proxy.AttachInput(phone); err != nil {
		t.Fatal(err)
	}
	if err := proxy.AttachOutput(tv); err != nil {
		t.Fatal(err)
	}
	if err := proxy.SelectInput("phone-1"); err != nil {
		t.Fatal(err)
	}
	if err := proxy.SelectOutput("tv-1"); err != nil {
		t.Fatal(err)
	}

	// Working session before the failure.
	phone.PressKey("ok")
	waitCond(t, "click before failure", func() bool { return clicks() == 1 })
	waitFrames(t, "frame before failure", tv.WaitFrames, 1)

	// The link dies.
	st.dropLink()
	waitCond(t, "reconnect", func() bool { return proxy.Reconnects() == 1 })

	// The same devices keep working: the selection stood and the device
	// plug-ins were re-transmitted on the new link.
	deadline := time.Now().Add(2 * time.Second)
	for clicks() < 2 && time.Now().Before(deadline) {
		phone.PressKey("ok")
		time.Sleep(10 * time.Millisecond)
	}
	if clicks() < 2 {
		t.Fatal("input did not survive reconnect")
	}
	if proxy.ActiveInput() != "phone-1" || proxy.ActiveOutput() != "tv-1" {
		t.Errorf("selection lost: in=%q out=%q",
			proxy.ActiveInput(), proxy.ActiveOutput())
	}
	if proxy.LastError() == nil {
		t.Error("link failure should be recorded")
	}
}

func TestSupervisorSurvivesRepeatedFailures(t *testing.T) {
	leakcheck.Check(t, 0)
	st := newRedialStack(t)
	_, clicks := buttonPanel(st.display, "X")

	proxy, err := core.Connect(st.dial)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	remote := device.NewRemoteControl("rem-1")
	defer remote.Close()
	if err := proxy.AttachInput(remote); err != nil {
		t.Fatal(err)
	}
	if err := proxy.SelectInput("rem-1"); err != nil {
		t.Fatal(err)
	}

	for round := 1; round <= 3; round++ {
		st.dropLink()
		waitCond(t, "reconnect", func() bool { return proxy.Reconnects() >= int64(round) })
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
	leakcheck.Check(t, 0)
	st := newRedialStack(t)
	proxy, err := core.Connect(st.dial)
	if err != nil {
		t.Fatal(err)
	}
	proxy.Close()
	proxy.Close() // idempotent
	if err := proxy.AttachInput(device.NewPDA("p")); err == nil {
		t.Error("attach after close should fail")
	}
	n := proxy.Reconnects()
	time.Sleep(30 * time.Millisecond)
	if proxy.Reconnects() != n {
		t.Error("proxy still reconnecting after close")
	}
}

func TestSupervisorWorksOverShapedLink(t *testing.T) {
	leakcheck.Check(t, 0)
	// A constrained home link: 5ms latency. The session stays usable.
	st := newRedialStack(t)
	_, clicks := buttonPanel(st.display, "X")

	dial := func() (net.Conn, error) {
		sc, cc := net.Pipe()
		go st.srv.Attach(sc)
		return netsim.Wrap(cc, netsim.WithLatency(5*time.Millisecond)), nil
	}
	proxy, err := core.Connect(dial)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	voice := device.NewVoiceInput("v-1")
	defer voice.Close()
	if err := proxy.AttachInput(voice); err != nil {
		t.Fatal(err)
	}
	if err := proxy.SelectInput("v-1"); err != nil {
		t.Fatal(err)
	}
	voice.Say("select")
	waitCond(t, "click over shaped link", func() bool { return clicks() == 1 })
}

// TestSupervisorResumesParkedSession: the reconnect after a link failure
// presents the session token, reclaims the parked server-side session
// and reports the resume.
func TestSupervisorResumesParkedSession(t *testing.T) {
	leakcheck.Check(t, 0)
	st := newRedialStack(t)
	_, clicks := buttonPanel(st.display, "Lamp")

	proxy, err := core.Connect(st.dial)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	phone := device.NewPhone("phone-1")
	defer phone.Close()
	if err := proxy.AttachInput(phone); err != nil {
		t.Fatal(err)
	}
	if err := proxy.SelectInput("phone-1"); err != nil {
		t.Fatal(err)
	}
	token := proxy.SessionToken()
	if token == "" {
		t.Fatal("no session token issued")
	}

	st.dropLink()
	waitCond(t, "reconnect", func() bool { return proxy.Reconnects() == 1 })
	if got := proxy.Resumes(); got != 1 {
		t.Fatalf("Resumes() = %d, want 1 (reconnect should reclaim the parked session)", got)
	}
	if !proxy.Resumed() {
		t.Fatal("proxy should report a resumed connection")
	}
	if got := proxy.SessionToken(); got != token {
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
// partway through a relink (injected byte-budget kills truncating the
// relink traffic at varying offsets) must not half-apply selections —
// whenever the proxy finally lands on a healthy link, both
// selections are in place and the session works.
func TestSupervisorRestoreSurvivesMidRestoreDeath(t *testing.T) {
	leakcheck.Check(t, 0)
	st := newRedialStack(t)
	_, clicks := buttonPanel(st.display, "Lamp")

	// Dial plan: first connection healthy; the next few die after a
	// seeded byte budget chosen to land inside handshake or relink;
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

	proxy, err := core.Connect(dial, core.WithBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	phone := device.NewPhone("phone-1")
	tv := device.NewTVDisplay("tv-1")
	defer phone.Close()
	if err := proxy.AttachInput(phone); err != nil {
		t.Fatal(err)
	}
	if err := proxy.AttachOutput(tv); err != nil {
		t.Fatal(err)
	}
	if err := proxy.SelectInput("phone-1"); err != nil {
		t.Fatal(err)
	}
	if err := proxy.SelectOutput("tv-1"); err != nil {
		t.Fatal(err)
	}

	st.dropLink()
	// The proxy chews through the faulty dials. A faulty link can
	// survive its own handshake and die later — keep pressing keys so
	// traffic burns every kill budget until a healthy link is up.
	deadline := time.Now().Add(5 * time.Second)
	for !(proxy.Reconnects() >= 1 && dialCount.Load() >= 5) {
		if time.Now().After(deadline) {
			t.Fatalf("stuck: dials=%d reconnects=%d", dialCount.Load(), proxy.Reconnects())
		}
		phone.PressKey("ok")
		time.Sleep(5 * time.Millisecond)
	}
	if proxy.LastError() == nil {
		t.Error("mid-relink failures should populate LastError")
	}

	// No half-application: both selections present, never one without
	// the other, and the session is live.
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
		t.Fatal("session dead after mid-relink failures")
	}
}

// failRestoreConn lets the handshake through and fails the relink: the
// one 20-byte type-0 message a client ever writes is the SetPixelFormat of
// the output renegotiation, the relink's last step.
type failRestoreConn struct{ net.Conn }

func (c failRestoreConn) Write(p []byte) (int, error) {
	if len(p) == 20 && p[0] == 0 {
		c.Conn.Close()
		return 0, errors.New("link died mid-relink")
	}
	return c.Conn.Write(p)
}

// TestSupervisorBackoffIsForFailure: the first redial after a link dies is
// immediate — a dead link is no evidence the server is gone — and the
// back-off spaces only the attempts that follow a failure, whether the
// dial, the handshake or the relink failed.
func TestSupervisorBackoffIsForFailure(t *testing.T) {
	leakcheck.Check(t, 0)
	const backoff = 150 * time.Millisecond
	st := newRedialStack(t)
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
		case 3: // second: connects, resumes, dies in the relink
			conn, err := st.dial()
			return failRestoreConn{conn}, err
		}
		return st.dial()
	}
	proxy, err := core.Connect(dial, core.WithBackoff(backoff))
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	if err := proxy.AttachOutput(device.NewTVDisplay("tv-1")); err != nil {
		t.Fatal(err)
	}
	if err := proxy.SelectOutput("tv-1"); err != nil {
		t.Fatal(err)
	}

	dropped := time.Now()
	st.dropLink()
	waitCond(t, "reconnect", func() bool { return proxy.Reconnects() == 1 })
	mu.Lock()
	defer mu.Unlock()
	if len(dials) != 4 {
		t.Fatalf("%d dials, want 4 (connect, failed dial, failed relink, success)", len(dials))
	}
	if gap := dials[1].Sub(dropped); gap >= backoff {
		t.Errorf("first redial came %v after the link died: it waited out the %v back-off", gap, backoff)
	}
	if gap := dials[2].Sub(dials[1]); gap < backoff {
		t.Errorf("redial %v after a failed dial, want >= %v", gap, backoff)
	}
	if gap := dials[3].Sub(dials[2]); gap < backoff {
		t.Errorf("redial %v after a failed relink, want >= %v", gap, backoff)
	}
	if err := proxy.LastError(); err == nil || !strings.Contains(err.Error(), "mid-relink") {
		t.Errorf("LastError = %v, want the relink failure of the third dial", err)
	}
}

func TestSupervisorOptionsAndClassSelection(t *testing.T) {
	leakcheck.Check(t, 0)
	st := newRedialStack(t)
	buttonPanel(st.display, "x")
	proxy, err := core.Connect(st.dial, core.WithBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	phone := device.NewPhone("ph-1")
	tv := device.NewTVDisplay("tv-1")
	defer phone.Close()
	if err := proxy.AttachInput(phone); err != nil {
		t.Fatal(err)
	}
	if err := proxy.AttachOutput(tv); err != nil {
		t.Fatal(err)
	}
	if err := proxy.SelectInputByClass("phone"); err != nil {
		t.Fatal(err)
	}
	if err := proxy.SelectOutputByClass("tv"); err != nil {
		t.Fatal(err)
	}
	if proxy.ActiveInput() != "ph-1" || proxy.ActiveOutput() != "tv-1" {
		t.Error("class selection failed")
	}
	// Class selections survive reconnects too.
	st.dropLink()
	waitCond(t, "reconnect", func() bool { return proxy.Reconnects() == 1 })
	if proxy.ActiveInput() != "ph-1" || proxy.ActiveOutput() != "tv-1" {
		t.Error("class selection lost across the reconnect")
	}
}

// TestRelinkKeepsDevicesSelectionAndMirrors: the devices, the selection
// and the mirrors belong to the proxy, not to a link. Across one dropped
// link a mirror keeps receiving frames, a device detached before the drop
// stays detached, and a device attached and an output selected while no
// link is up are live on the next link.
func TestRelinkKeepsDevicesSelectionAndMirrors(t *testing.T) {
	leakcheck.Check(t, 0)
	st := newRedialStack(t)
	var mu sync.Mutex
	clicks := 0
	lbl := toolkit.NewLabel("damage 0")
	root := toolkit.NewPanel(toolkit.VBox{Gap: 4, Padding: 4})
	root.Add(toolkit.NewButton("Lamp", func() { mu.Lock(); clicks++; mu.Unlock() }))
	root.Add(lbl)
	st.display.SetRoot(root)
	st.display.Render()
	clicked := func() int { mu.Lock(); defer mu.Unlock(); return clicks }
	damages := 0
	damage := func() {
		damages++
		st.display.Update(func() { lbl.SetText(fmt.Sprintf("damage %d", damages)) })
	}

	// While hold is set a dial reports itself and waits for the gate: the
	// proxy sits between links for as long as the test needs.
	var hold atomic.Bool
	dialing, gate := make(chan struct{}, 1), make(chan struct{})
	dial := func() (net.Conn, error) {
		if hold.Load() {
			dialing <- struct{}{}
			<-gate
		}
		return st.dial()
	}
	proxy, err := core.Connect(dial, core.WithBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // before Close: a failed test must not leave the dial waiting
	phone, remote, latecomer := device.NewPhone("phone-1"), device.NewRemoteControl("rem-1"), device.NewPhone("phone-2")
	tv1, tv2, pda := device.NewTVDisplay("tv-1"), device.NewTVDisplay("tv-2"), device.NewPDA("pda-1")
	defer phone.Close()
	defer remote.Close()
	defer latecomer.Close()
	defer pda.Close()
	for _, d := range []core.InputDevice{phone, remote} {
		if err := proxy.AttachInput(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range []core.OutputDevice{tv1, tv2, pda} {
		if err := proxy.AttachOutput(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := proxy.SelectInput("phone-1"); err != nil {
		t.Fatal(err)
	}
	if err := proxy.SelectOutput("tv-1"); err != nil {
		t.Fatal(err)
	}
	if err := proxy.AddMirror("pda-1"); err != nil {
		t.Fatal(err)
	}
	if err := proxy.DetachInput("rem-1"); err != nil {
		t.Fatal(err)
	}
	damage()
	waitCond(t, "mirror frame before the drop", func() bool { return pda.FrameCount() > 0 })

	hold.Store(true)
	st.dropLink()
	<-dialing // the link is gone and the next one waits for the gate
	if err := proxy.AttachInput(latecomer); err != nil {
		t.Fatalf("attach while no link is up: %v", err)
	}
	if err := proxy.SelectInput("phone-2"); err != nil {
		t.Fatalf("select input while no link is up: %v", err)
	}
	if err := proxy.SelectOutput("tv-2"); err != nil {
		t.Fatalf("select output while no link is up: %v", err)
	}
	release()
	waitCond(t, "reconnect", func() bool { return proxy.Reconnects() == 1 })

	if got := proxy.Mirrors(); !slices.Equal(got, []string{"pda-1"}) {
		t.Errorf("mirrors after the relink = %v, want [pda-1]", got)
	}
	if got := proxy.InputIDs(); !slices.Equal(got, []string{"phone-1", "phone-2"}) {
		t.Errorf("inputs after the relink = %v, want [phone-1 phone-2] (rem-1 stays detached)", got)
	}
	if in, out := proxy.ActiveInput(), proxy.ActiveOutput(); in != "phone-2" || out != "tv-2" {
		t.Errorf("selection after the relink: in=%q out=%q, want phone-2 and tv-2", in, out)
	}
	mirrored := pda.FrameCount()
	damage()
	waitCond(t, "selected output's frame on the next link", func() bool { return tv2.FrameCount() > 0 })
	waitCond(t, "mirror frame on the next link", func() bool { return pda.FrameCount() > mirrored })
	before := clicked()
	latecomer.PressKey("ok")
	waitCond(t, "click from the device attached between links", func() bool { return clicked() > before })
	if st := proxy.Stats(); st.ForwardErrors != 0 {
		t.Errorf("ForwardErrors = %d across an idle hop, want 0", st.ForwardErrors)
	}
}

// TestCloseJoinsTheRunLoop: a Connect proxy's Close returns only once its
// run loop has. The stacks are read as Close returns, with nothing else
// to tear down in between (the server side is a handshake already done),
// a hundred times over.
func TestCloseJoinsTheRunLoop(t *testing.T) {
	for i := 0; i < 100; i++ {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			leakcheck.Check(t, 0)
			sc, cc := net.Pipe()
			defer sc.Close()
			served := make(chan error, 1)
			go func() {
				_, err := rfb.NewEdgeServerConn(sc, 64, 48, "join", nil)
				hdr := make([]byte, 4) // the proxy's SetEncodings: type, pad, count
				if err == nil {
					_, err = io.ReadFull(sc, hdr)
				}
				if err == nil {
					_, err = io.ReadFull(sc, make([]byte, 4*binary.BigEndian.Uint16(hdr[2:])))
				}
				served <- err
			}()
			proxy, err := core.Connect(func() (net.Conn, error) { return cc, nil })
			if err != nil {
				t.Fatal(err)
			}
			if err := <-served; err != nil {
				t.Fatal(err)
			}
			proxy.Close()
		})
	}
}
