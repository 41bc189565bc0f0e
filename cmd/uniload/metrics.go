//go:build linux

package main

import (
	"fmt"
	"math"
)

// perLayer lists the metrics of single layers a traced run reports, named
// layer.metric. None is gated. How each is measured — [H] harness span,
// [S] delta of the hub's existing counters per op, [R] layer replay, [T]
// folded span recorder — is in README.md, with the end-to-end metric and
// workload each should move.
var perLayer = []metricDef{
	// core
	{Name: "core.inject_us", Unit: "us", Better: "lower"},
	{Name: "core.present_us", Unit: "us", Better: "lower"},
	{Name: "core.coalesced_per_op", Unit: "count", Better: "higher"},
	{Name: "core.convert_tv_us", Unit: "us", Better: "lower"},
	{Name: "core.convert_pda_us", Unit: "us", Better: "lower"},
	{Name: "core.convert_phone_us", Unit: "us", Better: "lower"},
	// rfb
	{Name: "rfb.decode_us", Unit: "us", Better: "lower"},
	{Name: "rfb.encode_us_mean", Unit: "us", Better: "lower"},
	{Name: "rfb.bytes_copyrect_per_op", Unit: "B", Better: "lower"},
	{Name: "rfb.bytes_tileref_per_op", Unit: "B", Better: "lower"},
	{Name: "rfb.bytes_tileinstall_per_op", Unit: "B", Better: "lower"},
	{Name: "rfb.bytes_zlibdict_per_op", Unit: "B", Better: "lower"},
	{Name: "rfb.bytes_other_per_op", Unit: "B", Better: "lower"},
	{Name: "rfb.tile_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "rfb.scratch_miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "rfb.encode_full_zlibdict_us", Unit: "us", Better: "lower"},
	{Name: "rfb.encode_full_hextile_us", Unit: "us", Better: "lower"},
	{Name: "rfb.encode_full_raw_us", Unit: "us", Better: "lower"},
	{Name: "rfb.encode_widget_us", Unit: "us", Better: "lower"},
	{Name: "rfb.decode_full_us", Unit: "us", Better: "lower"},
	{Name: "rfb.prepare_nochange_us", Unit: "us", Better: "lower"},
	{Name: "rfb.feed_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "rfb.pack_us", Unit: "us", Better: "lower"},
	{Name: "rfb.unpack_us", Unit: "us", Better: "lower"},
	{Name: "rfb.pack_ratio", Unit: "ratio", Better: "lower"},
	{Name: "rfb.mig_encode_us", Unit: "us", Better: "lower"},
	{Name: "rfb.mig_decode_us", Unit: "us", Better: "lower"},
	// hub
	{Name: "hub.connect_us", Unit: "us", Better: "lower"},
	{Name: "hub.route_us_mean", Unit: "us", Better: "lower"},
	{Name: "hub.token_routes_per_op", Unit: "count", Better: "lower"},
	{Name: "hub.parse_preamble_ns", Unit: "ns", Better: "lower"},
	{Name: "hub.admit_resident_ns", Unit: "ns", Better: "lower"},
	{Name: "hub.admit_cold_us", Unit: "us", Better: "lower"},
	// fed
	{Name: "fed.routes_per_op", Unit: "count", Better: "lower"},
	{Name: "fed.token_routes_per_op", Unit: "count", Better: "lower"},
	{Name: "fed.route_misses", Unit: "count", Better: "lower"},
	{Name: "fed.owner_ns", Unit: "ns", Better: "lower"},
	{Name: "fed.serve_route_home_us", Unit: "us", Better: "lower"},
	{Name: "fed.serve_route_token_us", Unit: "us", Better: "lower"},
	{Name: "fed.migrate_home_us", Unit: "us", Better: "lower"},
	{Name: "fed.migrate_bytes", Unit: "B", Better: "lower"},
	// uniserver
	{Name: "server.turnaround_us", Unit: "us", Better: "lower"},
	{Name: "uniserver.queue_lag_us_mean", Unit: "us", Better: "lower"},
	{Name: "uniserver.dispatch_us_mean", Unit: "us", Better: "lower"},
	{Name: "uniserver.input_to_update_us_mean", Unit: "us", Better: "lower"},
	{Name: "uniserver.updates_per_op", Unit: "count", Better: "lower"},
	{Name: "uniserver.coalesced_per_op", Unit: "count", Better: "higher"},
	{Name: "uniserver.input_dropped", Unit: "count", Better: "lower"},
	{Name: "uniserver.parked_per_op", Unit: "count", Better: "lower"},
	{Name: "uniserver.resumed_per_op", Unit: "count", Better: "higher"},
	{Name: "uniserver.resume_miss_per_op", Unit: "count", Better: "lower"},
	{Name: "uniserver.lot_compress_ratio", Unit: "ratio", Better: "lower"},
	{Name: "uniserver.goroutines_per_session", Unit: "count", Better: "lower"},
	{Name: "roam.resume_p50_us", Unit: "us", Better: "lower"},
	{Name: "roam.join_p50_us", Unit: "us", Better: "lower"},
	// toolkit + gfx
	{Name: "toolkit.px_repainted_per_op", Unit: "count", Better: "lower"},
	{Name: "toolkit.widgets_painted_per_op", Unit: "count", Better: "lower"},
	{Name: "toolkit.frames_per_op", Unit: "count", Better: "lower"},
	{Name: "toolkit.render_widget_us", Unit: "us", Better: "lower"},
	{Name: "toolkit.render_full_us", Unit: "us", Better: "lower"},
	// homeapp + havi + appliance
	{Name: "havi.control_roundtrip_us", Unit: "us", Better: "lower"},
	// sched
	{Name: "sched.turns_per_op", Unit: "count", Better: "lower"},
	{Name: "sched.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "sched.kick_to_run_ns", Unit: "ns", Better: "lower"},
	// trace + metrics
	{Name: "stage.proxy_flush_us", Unit: "us", Better: "lower"},
	{Name: "stage.wire_us", Unit: "us", Better: "lower"},
	{Name: "stage.hub_route_us", Unit: "us", Better: "lower"},
	{Name: "stage.queue_us", Unit: "us", Better: "lower"},
	{Name: "stage.dispatch_us", Unit: "us", Better: "lower"},
	{Name: "stage.render_us", Unit: "us", Better: "lower"},
	{Name: "stage.encode_us", Unit: "us", Better: "lower"},
	{Name: "stage.flush_us", Unit: "us", Better: "lower"},
	{Name: "stage.proxy_flush_share", Unit: "ratio", Better: "lower"},
	{Name: "stage.wire_share", Unit: "ratio", Better: "lower"},
	{Name: "stage.hub_route_share", Unit: "ratio", Better: "lower"},
	{Name: "stage.queue_share", Unit: "ratio", Better: "lower"},
	{Name: "stage.dispatch_share", Unit: "ratio", Better: "lower"},
	{Name: "stage.render_share", Unit: "ratio", Better: "lower"},
	{Name: "stage.encode_share", Unit: "ratio", Better: "lower"},
	{Name: "stage.flush_share", Unit: "ratio", Better: "lower"},
	{Name: "stage.samples", Unit: "count", Better: "higher"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	// process
	{Name: "client.op_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.op_max_us", Unit: "us", Better: "lower"},
	{Name: "client.samples", Unit: "count", Better: "higher"},
	{Name: "client.failed_op_share", Unit: "ratio", Better: "lower"},
	{Name: "server.rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "server.cpu_user_share", Unit: "ratio", Better: "higher"},
	{Name: "stylus.gen_late_p99_us", Unit: "us", Better: "lower"},
}

// result shapes the report into the contract's last line: the end-to-end
// metrics of an untraced run, or the per-layer metrics of a traced one.
func (r *report) result(traced bool) result {
	res := result{
		Correct:   len(r.problems) == 0,
		Attempted: r.base.attempted(), Failed: r.base.failed(),
	}
	var values map[string]float64
	defs := endToEnd
	if traced {
		res.Attempted += r.traced.attempted()
		res.Failed += r.traced.failed()
		values, defs = r.layerValues(), perLayer
	} else {
		values = r.endToEndValues()
	}
	if res.Attempted == 0 {
		res.Attempted = 1 // the contract wants at least one; correct is false below
		res.Correct = false
	}
	res.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.problem("metric %s has no finite value", d.Name)
			res.Correct = false
			v = 0
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return res
}

// endToEndValues computes the gated metrics from the untraced window. Rate
// and latency are medians over the window's slices. Bytes and CPU are taken
// over the whole window: bytes are counts, and the hub's CPU comes in 10 ms
// ticks, too coarse for a slice.
func (r *report) endToEndValues() map[string]float64 {
	w := r.base
	ops := float64(w.completed())
	if ops == 0 {
		r.problem("%v", errNoOps)
		return nil
	}
	slices := func(fn func(secs, ops float64, latUS []float64) float64) float64 {
		return median(w.perSlice(fn))
	}
	first, last := w.marks[0], w.marks[len(w.marks)-1]
	return map[string]float64{
		"setup_s":                median(r.setups),
		"ops_per_s":              w.opsPerSecond(),
		"op_p50_us":              slices(func(_, _ float64, lat []float64) float64 { return percentile(lat, 0.50) }),
		"op_p90_us":              slices(func(_, _ float64, lat []float64) float64 { return percentile(lat, 0.90) }),
		"wire_down_bytes_per_op": float64(w.client.wireDown) / ops,
		"wire_up_bytes_per_op":   float64(w.client.wireUp) / ops,
		"server_cpu_ms_per_kop":  (last.server - first.server).Seconds() * 1e6 / ops,
		"client_cpu_ms_per_kop":  (last.self - first.self).Seconds() * 1e6 / ops,
	}
}

// layerValues computes the per-layer metrics: harness spans and counter
// deltas of the traced window, the folded stages, the replays, and the
// diagnostics of the untraced window.
func (r *report) layerValues() map[string]float64 {
	w, base := r.traced, r.base
	ops := float64(w.completed())
	if ops == 0 || base.completed() == 0 {
		r.problem("%v", errNoOps)
		return nil
	}
	p50 := func(pick func(*recorder) []int64) float64 {
		return median(usOf(w.gather(pick)))
	}
	perOp := func(names ...string) float64 {
		sum := 0.0
		for _, n := range names {
			sum += w.counter(n)
		}
		return sum / ops
	}
	refs, installs := w.counter("rfb_tilecache_refs_sent_total"), w.counter("rfb_tilecache_installs_sent_total")
	parkedNow := float64(w.hubAfter.Gauges["session_parked"])
	baseLat := usOf(base.gather(func(r *recorder) []int64 { return r.latNS }))
	v := map[string]float64{
		"core.inject_us":        p50(func(r *recorder) []int64 { return r.injectNS }),
		"core.present_us":       p50(func(r *recorder) []int64 { return r.presentNS }),
		"core.coalesced_per_op": float64(w.client.coalesced) / ops,
		"rfb.decode_us":         p50(func(r *recorder) []int64 { return r.decodeNS }),
		"server.turnaround_us":  p50(func(r *recorder) []int64 { return r.turnaroundNS }),
		"hub.connect_us":        p50(func(r *recorder) []int64 { return r.connectNS }),
		"roam.resume_p50_us":    p50(func(r *recorder) []int64 { return r.resumeNS }),
		"roam.join_p50_us":      p50(func(r *recorder) []int64 { return r.joinNS }),

		"rfb.encode_us_mean":           w.histMeanUS("server_encode_seconds"),
		"rfb.bytes_copyrect_per_op":    perOp("rfb_encode_copyrect_bytes_total"),
		"rfb.bytes_tileref_per_op":     perOp("rfb_encode_tileref_bytes_total"),
		"rfb.bytes_tileinstall_per_op": perOp("rfb_encode_tileinstall_bytes_total"),
		"rfb.bytes_zlibdict_per_op":    perOp("rfb_encode_zlibdict_bytes_total"),
		"rfb.bytes_other_per_op": perOp("rfb_encode_raw_bytes_total", "rfb_encode_rre_bytes_total",
			"rfb_encode_hextile_bytes_total", "rfb_encode_zlib_bytes_total"),
		"rfb.tile_hit_ratio":     ratio(refs, refs+installs),
		"rfb.scratch_miss_ratio": ratio(w.counter("rfb_scratch_pool_misses_total"), w.counter("rfb_scratch_pool_gets_total")),

		"hub.route_us_mean":       w.histMeanUS("hub_route_seconds"),
		"hub.token_routes_per_op": perOp("hub_token_routes_total"),
		"fed.routes_per_op":       perOp("fed_routes_total"),
		"fed.token_routes_per_op": perOp("fed_token_routes_total"),
		"fed.route_misses":        w.counter("fed_route_misses_total"),

		"uniserver.queue_lag_us_mean":       w.histMeanUS("sched_queue_lag_seconds"),
		"uniserver.dispatch_us_mean":        w.histMeanUS("input_dispatch_seconds"),
		"uniserver.input_to_update_us_mean": w.histMeanUS("input_to_update_seconds"),
		"uniserver.updates_per_op":          perOp("server_updates_sent_total"),
		"uniserver.coalesced_per_op":        perOp("input_coalesced_total"),
		"uniserver.input_dropped":           w.counter("input_dropped_total"),
		"uniserver.parked_per_op":           perOp("session_parked_total"),
		"uniserver.resumed_per_op":          perOp("session_resumed_total"),
		"uniserver.resume_miss_per_op":      perOp("session_resume_miss_total"),
		// Resident bytes of the detach lot against what its sessions'
		// shadows weigh uncompressed.
		"uniserver.lot_compress_ratio": ratio(float64(w.hubAfter.Gauges["lot_parked_bytes"]),
			parkedNow*hubWidth*hubHeight*4),
		"uniserver.goroutines_per_session": r.goroutinesPerSession,

		"toolkit.px_repainted_per_op":    perOp("render_px_repainted_total"),
		"toolkit.widgets_painted_per_op": perOp("render_widgets_painted_total"),
		"toolkit.frames_per_op":          perOp("render_frames_total"),
		"sched.turns_per_op":             perOp("sched_turns_total"),
		"sched.queue_depth_max":          w.queueDepthMax,

		"stage.samples":        float64(r.stages.samples),
		"trace.overhead_share": 1 - ratio(w.opsPerSecond(), base.opsPerSecond()),

		"client.op_p99_us":       percentile(baseLat, 0.99),
		"client.op_max_us":       maxOf(baseLat),
		"client.samples":         float64(len(baseLat)),
		"client.failed_op_share": ratio(float64(base.failed()), float64(base.attempted())),
		"server.rss_peak_mb":     r.rssPeakMB,
		"server.cpu_user_share":  base.serverUserShare(),
		"stylus.gen_late_p99_us": percentile(usOf(base.gather(func(r *recorder) []int64 { return r.lateNS })), 0.99),
	}
	for _, st := range pipelineStages {
		v[fmt.Sprintf("stage.%s_us", st)] = r.stages.medianUS[st]
		v[fmt.Sprintf("stage.%s_share", st)] = r.stages.share[st]
	}
	for name, val := range r.layers {
		v[name] = val
	}
	return v
}

// serverUserShare is the user-mode share of the hub's CPU over the window.
func (w *window) serverUserShare() float64 {
	a, b := w.marks[0], w.marks[len(w.marks)-1]
	return ratio((b.serverUsr - a.serverUsr).Seconds(), (b.server - a.server).Seconds())
}
