package main

import (
	"fmt"
	"net"
	"os"
	"time"

	"uniint/internal/appliance"
	"uniint/internal/core"
	"uniint/internal/device"
	"uniint/internal/homeapp"
	"uniint/internal/toolkit"
	"uniint/internal/trace"
	"uniint/internal/uniserver"
)

// traceDemo runs a small fully-traced interaction workload (every
// interaction sampled) over the in-process device → proxy → server stack
// and writes the recorded spans as Chrome trace_event JSON, plus a
// slowest-interactions table on stdout. It exists so `make trace-demo`
// produces a file anyone can drop into chrome://tracing without standing
// up a hub.
func traceDemo(path string) error {
	trace.Reset()
	trace.SetSampling(1)
	defer trace.SetSampling(0)

	lamp := appliance.NewLamp("Trace Lamp")
	home := appliance.NewHome()
	if _, err := home.Add(lamp); err != nil {
		return err
	}
	home.Network().WaitIdle()
	display := toolkit.NewDisplay(320, 240)
	app := homeapp.New(home.Network(), display)
	defer app.Close()
	defer home.Close()
	srv := uniserver.New(display, "trace demo")
	defer srv.Close()

	sc, cc := net.Pipe()
	go srv.Attach(sc, nil)
	proxy, err := core.Dial(cc)
	if err != nil {
		return err
	}
	go proxy.Run()
	defer proxy.Close()
	phone := device.NewPhone("phone-1")
	defer phone.Close()
	if err := proxy.AttachInput(phone); err != nil {
		return err
	}
	// The phone doubles as the output device: selecting an output makes
	// the proxy demand framebuffer updates, which is what exercises the
	// render → encode → flush half of the traced pipeline.
	if err := proxy.AttachOutput(phone); err != nil {
		return err
	}
	if err := proxy.SelectInput("phone-1"); err != nil {
		return err
	}
	if err := proxy.SelectOutput("phone-1"); err != nil {
		return err
	}

	const presses = 8
	for i := 0; i < presses; i++ {
		phone.PressKey("ok")
		// Let each interaction's update ship before the next press so the
		// demo trace shows distinct interactions, not one coalesced burst.
		time.Sleep(20 * time.Millisecond)
	}
	// Wait for the tail: each traced interaction closes with a flush span
	// once its update hits the wire.
	deadline := time.Now().Add(5 * time.Second)
	for countStage(trace.StageFlush) < presses && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	spans := trace.Snapshot()
	fmt.Printf("trace demo: %d spans over %d interactions -> %s\n",
		len(spans), countTraces(spans), path)
	fmt.Println("slowest interactions (stage breakdown):")
	for _, t := range trace.Slowest(3) {
		fmt.Printf("  trace %#x  total %v\n", t.Trace,
			time.Duration(t.Total()).Round(time.Microsecond))
		for _, s := range t.Spans {
			fmt.Printf("    %-12s %8v\n", s.Stage.String(),
				time.Duration(s.End-s.Start).Round(time.Microsecond))
		}
	}
	return nil
}

func countStage(stage trace.Stage) int {
	n := 0
	for _, s := range trace.Snapshot() {
		if s.Stage == stage {
			n++
		}
	}
	return n
}

func countTraces(spans []trace.Span) int {
	seen := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		seen[s.Trace] = true
	}
	return len(seen)
}
