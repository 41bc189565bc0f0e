//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"os"

	"uniint/internal/trace"
)

// pipelineStages are the span names of one interaction's blocking chain,
// in causal order (trace.Stage's names; park, resume and migrate are
// session-lifecycle spans and are not part of an input's budget).
var pipelineStages = []string{
	"proxy_flush", "wire", "hub_route", "queue", "dispatch", "render", "encode", "flush",
}

// chromeTrace is the JSON Array Format trace.WriteChromeTrace emits.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // µs, rebased by the exporter
	Dur  float64           `json:"dur"` // µs
	Pid  int               `json:"pid"`
	Tid  uint64            `json:"tid"` // the trace id
	Args map[string]string `json:"args,omitempty"`
}

// stageFold is the span recorder folded per stage, over the interactions
// still in the rings when the window ended (about the last thousand): the
// median duration, and that median as a share of the median input-to-update
// time — the p50 budget. Shares of medians need not add up to one.
type stageFold struct {
	samples  int
	medianUS map[string]float64
	share    map[string]float64
}

// foldStages joins the hub's spans (Chrome JSON from /debug/uniint/trace)
// with this process's (the proxy_flush stage) by trace id. An interaction
// runs from the start of its proxy_flush to the end of its flush; hub_route
// precedes that chain (it is recorded at connect time), so its share is
// reported against the same total but is not part of it.
func foldStages(hubJSON []byte, local []trace.Span) (stageFold, error) {
	var hub chromeTrace
	if err := json.Unmarshal(hubJSON, &hub); err != nil {
		return stageFold{}, fmt.Errorf("hub trace: %w", err)
	}
	type interaction struct {
		dur              map[string]float64
		wireStart, flEnd float64
	}
	byID := map[uint64]*interaction{}
	at := func(id uint64) *interaction {
		it := byID[id]
		if it == nil {
			it = &interaction{dur: map[string]float64{}}
			byID[id] = it
		}
		return it
	}
	for _, ev := range hub.TraceEvents {
		it := at(ev.Tid)
		it.dur[ev.Name] = ev.Dur
		switch ev.Name {
		case "wire":
			it.wireStart = ev.Ts
		case "flush":
			it.flEnd = ev.Ts + ev.Dur
		}
	}
	for _, sp := range local {
		if sp.Stage == trace.StageProxyFlush {
			at(sp.Trace).dur["proxy_flush"] = float64(sp.End-sp.Start) / 1e3
		}
	}

	fold := stageFold{medianUS: map[string]float64{}, share: map[string]float64{}}
	perStage := map[string][]float64{}
	var totals []float64
	for _, it := range byID {
		_, hasPF := it.dur["proxy_flush"]
		_, hasWire := it.dur["wire"]
		_, hasFlush := it.dur["flush"]
		if !hasPF || !hasWire || !hasFlush {
			continue // overwritten in a ring, or an input that drew no update
		}
		fold.samples++
		totals = append(totals, it.dur["proxy_flush"]+it.flEnd-it.wireStart)
		for _, st := range pipelineStages {
			if d, ok := it.dur[st]; ok {
				perStage[st] = append(perStage[st], d)
			}
		}
	}
	for _, st := range pipelineStages {
		fold.medianUS[st] = median(perStage[st])
		fold.share[st] = ratio(fold.medianUS[st], median(totals))
	}
	return fold, nil
}

// writeMergedTrace writes one Chrome trace holding the hub's spans (pid 1)
// and this process's (pid 2). The hub's exporter rebases its timestamps,
// so the local spans are shifted onto the hub's time base by matching each
// interaction's local proxy_flush end to the start of its wire span.
func writeMergedTrace(path string, hubJSON []byte, local []trace.Span) error {
	var merged chromeTrace
	if err := json.Unmarshal(hubJSON, &merged); err != nil {
		return fmt.Errorf("hub trace: %w", err)
	}
	wireStart := map[uint64]float64{}
	for _, ev := range merged.TraceEvents {
		if ev.Name == "wire" {
			wireStart[ev.Tid] = ev.Ts
		}
	}
	var offsets []float64
	for _, sp := range local {
		if ts, ok := wireStart[sp.Trace]; ok && sp.Stage == trace.StageProxyFlush {
			offsets = append(offsets, ts-float64(sp.End)/1e3)
		}
	}
	shift := median(offsets)
	for _, sp := range local {
		merged.TraceEvents = append(merged.TraceEvents, chromeEvent{
			Name: sp.Stage.String(), Ph: "X", Pid: 2, Tid: sp.Trace,
			Ts: float64(sp.Start)/1e3 + shift, Dur: float64(sp.End-sp.Start) / 1e3,
		})
	}
	b, err := json.Marshal(merged)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
