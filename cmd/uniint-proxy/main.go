// Command uniint-proxy is the user-side daemon: the UniInt proxy with a
// set of simulated interaction devices and an interactive console for
// driving them. It connects to a uniintd server over TCP, or — with
// -home — to one household of a multi-home unihub.
//
//	uniint-proxy -server localhost:5900
//	uniint-proxy -server localhost:5900 -home home-0007
//
// Console commands:
//
//	devices                      list attached devices, mirrors and the selection
//	in <id> | out <id>           select input/output device
//	mirror <id> | unmirror <id>  feed an output device alongside the selected one
//	detach <id>                  detach the device (as an input and/or an output)
//	key <name>                   phone keypad (0-9, *, #, up, down, ok)
//	say <words...>               voice utterance
//	press <button>               remote button (up/down/left/right/ok/back)
//	tap <x> <y>                  PDA stylus tap (PDA coordinates)
//	stroke <name>                gesture (tap, swipe_up, swipe_down, ...)
//	situation <loc> <activity> [hands] [seated]   drive the rule engine
//	show                         render the selected output's last frame
//	stats                        proxy counters
//	session                      resume token, reconnect/resume counters
//	quit
//
// When the link drops, the console keeps working while the proxy redials,
// presents its resume token, and reclaims the parked server-side session
// (an incremental resync rather than a full repaint); devices, selection
// and mirrors stay as they were. `session` shows how often that happened.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"uniint/internal/core"
	"uniint/internal/device"
	"uniint/internal/gfx"
	"uniint/internal/hub"
	"uniint/internal/situation"
	"uniint/internal/trace"
)

func main() {
	server := flag.String("server", "localhost:5900", "uniintd or unihub address")
	home := flag.String("home", "", "home ID when the server is a multi-home unihub")
	// Interaction trace ids are minted proxy-side, where the device event
	// is accepted — sampling must be enabled here for the server's spans
	// (and the hub's /debug/uniint/trace export) to see any interactions.
	traceSample := flag.Int("trace-sample", 0, "trace 1 in N interactions end to end (0: off)")
	flag.Parse()
	trace.SetSampling(*traceSample)
	if err := run(*server, *home); err != nil {
		fmt.Fprintln(os.Stderr, "uniint-proxy:", err)
		os.Exit(1)
	}
}

func run(addr, home string) error {
	dial := func() (net.Conn, error) {
		if home != "" {
			return hub.DialHome(addr, home) // sends the routing preamble
		}
		return net.Dial("tcp", addr)
	}
	proxy, err := core.Connect(dial, core.WithBackoff(500*time.Millisecond))
	if err != nil {
		return err
	}
	defer proxy.Close()

	w, h := proxy.Client().Size()
	fmt.Printf("connected to %q (%dx%d desktop)\n", proxy.Client().Name(), w, h)

	// The standard device set travels with the user.
	pda := device.NewPDA("pda")
	phone := device.NewPhone("phone")
	voice := device.NewVoiceInput("voice")
	remote := device.NewRemoteControl("remote")
	gesture := device.NewGestureInput("gesture")
	tv := device.NewTVDisplay("tv")
	defer pda.Close()
	defer phone.Close()
	defer voice.Close()
	defer remote.Close()
	defer gesture.Close()
	for _, in := range []core.InputDevice{pda, phone, voice, remote, gesture} {
		if err := proxy.AttachInput(in); err != nil {
			return err
		}
	}
	for _, out := range []core.OutputDevice{pda, phone, tv} {
		if err := proxy.AttachOutput(out); err != nil {
			return err
		}
	}
	if err := proxy.SelectInput("pda"); err != nil {
		return err
	}
	if err := proxy.SelectOutput("pda"); err != nil {
		return err
	}
	engine := situation.NewEngine(proxy, situation.DefaultRules())

	latest := func() (core.Frame, bool) {
		switch proxy.ActiveOutput() {
		case "pda":
			return pda.Latest(), true
		case "phone":
			return phone.Latest(), true
		case "tv":
			return tv.Latest(), true
		}
		return core.Frame{}, false
	}

	fmt.Println("type 'help' for commands")
	sc := bufio.NewScanner(os.Stdin)
	lastReconnects := int64(0)
	for {
		if n := proxy.Reconnects(); n != lastReconnects {
			fmt.Printf("(link dropped; reconnected ×%d, session resumes ×%d)\n", n, proxy.Resumes())
			lastReconnects = n
		}
		fmt.Printf("[in=%s out=%s]> ", proxy.ActiveInput(), proxy.ActiveOutput())
		if !sc.Scan() {
			return sc.Err()
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		cmd, args := fields[0], fields[1:]
		switch cmd {
		case "quit", "exit":
			return nil
		case "help":
			fmt.Println("devices | in <id> | out <id> | mirror <id> | unmirror <id> | detach <id> | key <k> |" +
				" say <...> | press <b> | tap <x> <y> | stroke <s> |" +
				" situation <loc> <act> [hands] [seated] | show | stats | session | quit")
		case "devices":
			fmt.Println("inputs: ", proxy.InputIDs())
			fmt.Println("outputs:", proxy.OutputIDs())
			fmt.Println("mirrors:", proxy.Mirrors())
		case "in":
			if len(args) == 1 {
				reportErr(proxy.SelectInput(args[0]))
			}
		case "out":
			if len(args) == 1 {
				reportErr(proxy.SelectOutput(args[0]))
			}
		case "mirror":
			if len(args) == 1 {
				reportErr(proxy.AddMirror(args[0]))
			}
		case "unmirror":
			if len(args) == 1 {
				proxy.RemoveMirror(args[0])
			}
		case "detach":
			if len(args) == 1 {
				reportErr(detach(proxy, args[0]))
			}
		case "key":
			for _, k := range args {
				phone.PressKey(k)
			}
		case "say":
			voice.Say(strings.Join(args, " "))
		case "press":
			for _, b := range args {
				remote.Press(b)
			}
		case "tap":
			if len(args) == 2 {
				x, _ := strconv.Atoi(args[0])
				y, _ := strconv.Atoi(args[1])
				pda.Tap(x, y)
			}
		case "stroke":
			for _, s := range args {
				gesture.EmitStroke(s)
			}
		case "situation":
			if len(args) < 2 {
				fmt.Println("usage: situation <location> <activity> [hands] [seated]")
				continue
			}
			s := situation.Situation{Location: args[0], Activity: args[1]}
			if len(args) > 2 && args[2] == "hands" {
				s.HandsBusy = true
			}
			if len(args) > 3 && args[3] == "seated" {
				s.Seated = true
			}
			d := engine.SetSituation(s)
			fmt.Printf("decision: input %q (%s) output %q (%s)\n",
				d.InputClass, d.InputRule, d.OutputClass, d.OutputRule)
		case "show":
			f, ok := latest()
			if !ok || f.Seq == 0 {
				fmt.Println("no frame yet")
				continue
			}
			if f.Bits != nil {
				fmt.Print(gfx.AsciiBitmap(f.Bits))
			} else {
				fmt.Print(gfx.Ascii(f.RGB, 100))
			}
		case "stats":
			st := proxy.Stats()
			fmt.Printf("%+v\n", st)
		case "session":
			fmt.Printf("token %s  reconnects %d  resumes %d  resumed-now %v\n",
				proxy.SessionToken(), proxy.Reconnects(), proxy.Resumes(), proxy.Resumed())
		default:
			fmt.Printf("unknown command %q (try 'help')\n", cmd)
		}
	}
}

// detach removes id as an input, as an output and mirror, or both; it
// fails only when id is neither.
func detach(proxy *core.Proxy, id string) error {
	errIn, errOut := proxy.DetachInput(id), proxy.DetachOutput(id)
	if errIn != nil && errOut != nil {
		return errIn
	}
	return nil
}

func reportErr(err error) {
	if err != nil {
		fmt.Println("error:", err)
	}
}
