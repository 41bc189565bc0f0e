# uniint build / verify / benchmark-gate targets.
#
# The benchmark-regression gate compares `go test -bench` output against
# the committed BENCH_BASELINE.json (schema: internal/benchfmt). CI runs
# `make bench-gate`; regenerate the baseline with `make bench-baseline`
# after an intentional performance change.

GO       ?= go
# Benchmarks gated in CI: the input hot path, the encoding suite (whose
# allocs/op pins the zero-allocation contract), the pooled/adaptive
# pipeline, hub routing, the damage-clipped render path (whose
# allocs/op pins the zero-allocation incremental-render contract and whose
# ns/op pins the ≥10x widget-vs-full-repaint win), and the session
# footprint over loopback TCP (whose bytes/session and goroutines/session
# pin what an idle session holds — the goroutines/session baseline is 1,
# the parked reader, so a second per-session goroutine reads 2 and fails
# whatever EXTRA_TOL allows).
GATE_BENCH ?= BenchmarkE1InputLatency|BenchmarkE2Encoding|BenchmarkE2bPooled|BenchmarkE2bAdaptive|BenchmarkHubRoute|BenchmarkRenderFull|BenchmarkResume|BenchmarkE2bRoam|BenchmarkE2bMigrate|BenchmarkE2bWire|BenchmarkSessionFootprint
BENCHTIME  ?= 100x
# Packages holding gated benchmarks: the root end-to-end suite. Patterns
# that match nothing in a package are simply skipped there.
BENCH_PKGS ?= .
# Sub-100µs benchmarks run with many more iterations: at 100x a ~3µs/op
# bench measures a ~0.3ms window, where a single scheduler preemption on a
# shared runner blows through NS_TOL. 10000x widens the window ~100x and
# averages the noise out; these benches are all fast, so the extra wall
# time is small. The Input* set pins the batched/coalesced input pipeline
# at zero allocations per event end to end (wire write, read loop, queue,
# dispatch).
GATE_BENCH_MICRO ?= BenchmarkRenderWidget|BenchmarkRenderText|BenchmarkE2bRender|BenchmarkInputBatch|BenchmarkInputCoalesce|BenchmarkInputFlood|BenchmarkE2bInput|BenchmarkTraceOverhead
BENCHTIME_MICRO  ?= 10000x
# ns/op headroom: generous because wall time shifts with hardware, still
# far under the 2x-regression class the gate exists to catch. allocs/op is
# machine-independent and stays tight (+20%, +2 absolute).
NS_TOL     ?= 0.75
# Custom */op metric headroom (wirebytes/op, updates/op, dispatches/op):
# some of these are timing-coupled ratios (updates per event depends on
# coalescing races), so they get ns-class headroom. The deterministic
# ones (wirebytes/op replays a fixed step cycle) regress by multiples
# when they regress at all, so +50% still catches the real class.
EXTRA_TOL  ?= 0.50

# Coverage gate: cmd/covgate parses the coverage profile and fails below
# this committed threshold (current total is ~79.4%; the margin absorbs
# run-to-run jitter without letting real regressions through). Raising it
# is a reviewed change, like the benchmark baseline.
COVER_MIN ?= 74

# Size ratchet (make loc-gate): the most non-test Go lines the tree may
# hold outside the frozen cmd/uniload. Raising it is a reviewed change,
# like COVER_MIN; a PR that shrinks the tree lowers it.
# PR 24 (one read path) lowered it 20 700 -> 20 378 for -312 lines:
# netsim/eventpipe.go -171 (deleted), uniserver/edge.go -77 (deleted),
# uniserver/server.go -59 (Attach's transport switch, the onClose
# plumbing, the read-task fields, satisfyParkedRequest), hub/host.go -7
# and hub/hub.go +1 (Attach loses onClose, Route unpins with a defer),
# uniserver/lot.go -4 and uniserver/migrate.go -4 (a parked request is not
# carried through the park), rfb/server.go -3, rfb/feed.go -2 (comments);
# workload/idlefleet.go +11 (dials and reads ServerInit off a real
# socket), rfb/migrate.go +3 (comment).
# Parked sessions keeping no pixels lowered it 20 378 -> 20 188 for
# -190 lines: uniserver/lot.go -139 (packDwell, the dwell branch of the
# janitor, compressParked, the compressing wait, the thaw in adopt, the
# lot_parked_bytes/lot_packed_total accounting), uniserver/migrate.go -31
# (ExportParked's claim-and-wait and inline Pack), rfb/park.go -13
# (ShadowBytes and PackedShadow.PixelFormat), sched/pool.go -6 (Pool.Go,
# whose one caller was the compression turn), uniserver/server.go -2,
# rfb/wirestate.go -1; rfb/migrate.go +2 (comments).
# Memoising cold-join frames raised it 20 188 -> 20 223 for +35 lines:
# rfb/wirestate.go +34 (encodeDict, the lazy shadow behind ensureShadow,
# commit skipping a distrusted shadow, encodeInstall's one header),
# rfb/tilecache.go +7 (tileKey.kind, comments), rfb/park.go +1;
# rfb/dict.go -4 and rfb/encodings.go -3 (rfb_dict_rects_total and
# rfb_dict_bytes_total, which duplicated other counters).
# UNIMIG/2 lowered it 20 223 -> 20 059 for -164 lines: rfb/migrate.go
# -160 (the flags byte, the five MigFlag constants, the PIXEL FORMAT
# block, the pending region, the shadow stream, MigrationRecord's
# PF/PFSet/Shadow/Pending/HasPending, appendU16/appendU32 and the
# decoder's u16/u32 in favour of one bounds check per section),
# rfb/park.go -2 and uniserver/migrate.go -2 (comments).
# Answering a device switch from the frame's generation raised it
# 20 059 -> 20 115 for +56 lines: rfb/wirestate.go +36 (the synced frame
# and its generation, findCopy's O(1) answer, commit keeping and ending
# the equality, the full() helper, and the self/displaced/unchanged
# CopyRect counters replacing rfb_copyrect_hits_total and the probe-pixel
# counter), gfx/framebuffer.go +14 (Framebuffer.Gen and the writes that
# advance it), rfb/tilecache.go +5 (an empty tile window re-inits for
# free), gfx/font.go +1.
# Live sessions keeping no pixels lowered it 20 115 -> 20 021 for -94
# lines: rfb/wirestate.go -108 (the shadow field and ensureShadow, the
# valid flag, the +-32 px displaced search, matchesShadow, rowsEqual,
# copySearchSpan, copyProbeWidth, the self/displaced CopyRect counters,
# commit's shadow writes), rfb/park.go -43 (Pack packs the synced frame in
# one write; Unpack returns the frame, one zlib reader and one read; the
# dict flag and pixel format PackedShadow no longer needs),
# uniserver/lot.go -7 (adopt's Reset of an already fresh model);
# cmd/obslint/main.go +63 (a test read
# of a default-registry metric no non-test file registers fails the
# lint), cmd/obslint/testdata/bad/internal/uniserver/bad.go +1.
# A device switch costing the client O(1) raised it 20 021 -> 20 061 for
# +40 lines: device/device.go +48 (scaledOutput, the one stateful plug-in
# of the PDA and the phone: its owned panel, bitmap and dither rows, and
# the "nothing changed" answer), gfx/scale.go +15 (ScaleBoxInto, which
# ScaleBox wraps, and scaleNearestInto, which ScaleNearest wraps),
# rfb/client.go +4 (a self-CopyRect is neither applied nor reported),
# core/plugin.go +1 (comments), gfx/convert.go 0 (FloydSteinbergInto
# replaces FloydSteinberg); device/pda.go -14 and device/phone.go -14
# (pdaOutputPlugin and phoneOutputPlugin, replaced by scaledOutput).
# One session table lowered it 20 061 -> 20 052 for -9 lines:
# uniserver/migrate.go -24 (ImportParked's pumpMu/closed/lotMu sequence
# and its counter sites, ExportParked's, DetachSessions' map snapshot),
# uniserver/server.go -1 (the sessions, live and lot maps and lotMu,
# teardown's and Attach's counter sites and the live-index insert;
# liveSessions and pump's one walk of the table added), hub/host.go -1
# (comment); uniserver/lot.go +16 (state, edge, the lifecycle table,
# entry, transition and refuse, replacing unlist, releaseClaim, expire,
# addParkedDamage, register's defensive bail and 8 counter sites),
# hub/hub.go +1 (comment).
# Full-bounds repaints as memoised 64-row bands raised it 20 052 -> 20 131
# for +79 lines: rfb/server.go +54 (PreparedUpdate.encodeBands, the banded
# case in PrepareUpdateWire's loop, the refusal of an update whose
# rectangle count overflows the wire's u16 and maxUpdateRects, doc
# comments), rfb/wirestate.go +25 (bandRows, banded, unchanged, the
# self-copy condition banded shares with selectAndEncode, and the
# dictionary counters' doc comment).
# Homes as turns, with a write budget, lowered it 20 131 -> 20 089 for -42
# lines: rfb/server.go -43 (countWriter and ServerConn.cw; the update and
# ServerInit headers appended into the pooled writer's free space),
# rfb/client.go -36 and rfb/wire.go -18 (writeU8, writeU16 and writeU32,
# and writePixelFormat as appendPixelFormat: the client's messages are
# appended the same way), havi/event.go -9 (Post's insertion sort);
# uniserver/server.go +43 (WriteBudget, armWrite, sent, the work-arrival
# stamp in wake), havi/dispatch.go +8 (the queue drained by a pool task,
# replacing the dispatcher goroutine), havi/network.go +4 and
# sched/pool.go +3 (comments), havi/registry.go +1 (watchers notified in
# registration order), cmd/obslint/testdata/bad/internal/havi/dispatch.go
# +5 (a per-home goroutine the lint refuses).
# One content key per frame row raised it 20 089 -> 20 255 for +166 lines:
# gfx/key.go +93 (new: gfx.Key, the per-process seeds, the
# gfx_rows_keyed_total counter, wrote, Framebuffer.Key with its row memo,
# rowKey, keyBytes), cmd/obslint/main.go +57 (the Pix-write rule, isPixCall,
# inDir shared with isSessionPath, the package doc paragraph),
# cmd/obslint/testdata/bad/internal/device/present.go +13 and
# testdata/good/internal/rfb/decode.go +12 (the rule's two fixtures),
# gfx/framebuffer.go +6 (the keys and stale fields, the Pix doc);
# rfb/tilecache.go -15 (hashTile and the free-slot list deleted; tileID,
# tileIDMask and a window that grows on install and compares full keys
# added).
# A parked session costing nothing per render raised it 20 255 -> 20 410
# for +155 lines: uniserver/lot.go +63 (journalCap, stamp, record and
# catchUp, the live-session list transition keeps and unlist, the
# journal's paragraph in the lot comment), hub/preamble.go +48
# (ReadPreamble, readPreamble shared with ParsePreamble, replayConn,
# parseLine), rfb/wirestate.go +36 (the memo asked before the probe for a
# full-width band, dictKey, memo), uniserver/migrate.go +5 (ExportParked's
# catch-up and ImportParked's stamp under pumpMu), rfb/tilecache.go +2
# (tileKey.choice), fed/cluster.go +1; uniserver/server.go 0 (the journal
# and live-list fields and offer added; pump's walk of the table and
# liveSessions' deleted).
# One timer, the runtime's, lowered it 20 410 -> 20 029 for -381 lines:
# sched/wheel.go -405 (deleted: Wheel, Timer, Shared, NewWheel,
# DefaultTick and the sched_wheel_* instruments), uniserver/lot.go -2,
# uniserver/server.go -1, sched/pool.go -1 (comments), cmd/unihub/main.go
# -1 (/healthz's wheel_timers); cmd/obslint/main.go +19 (the ticker rule),
# hub/hub.go +6 (janitorFire, which sweeps and re-arms under janitorMu,
# and sweepEvery, replacing SweepInterval and the sweep task),
# cmd/obslint/testdata/bad/internal/havi/dispatch.go +4 (a ticker the
# lint refuses), appliance/appliance.go 0 (tickOnce re-arms itself).
# Production as the only configuration lowered it 20 029 -> 19 928 for
# -101 lines: rfb/client.go -34 (SendKey, SendPointer, SendCutText),
# core/proxy.go -25 (RefreshOutput and present's no-damage mode, Inject
# and the inject helper folded into InjectBatch), uniserver/server.go -17
# (Config, New's park normalisation, Attach's parking-off guard; +9 for
# the slow link's no-fresh-budget rule and the send timing it reads),
# toolkit/display.go -17 (RenderInto, Click), hub/hub.go -14 (Shards,
# nextPow2 and the rounding, servePreamble folded into ServeConn;
# ServePreamble takes the router's home and start time), uniint.go -11
# (ParkTTL, ParkCapacity), gfx/font.go -7 (glyphColumns) and
# uniserver/inputqueue.go -7 (inputQueue.depth), both now in their tests,
# fed/cluster.go -6 (DetachTimeout; findToken returns the home),
# uniserver/lot.go -6 (takeover's and retire's parking-off branches),
# uniserver/migrate.go -3, cmd/unihub/main.go -2 (-shards);
# cmd/obslint/testonly.go +30 and cmd/obslint/main.go +2 (the knob rule),
# its fixtures +16.
# One client lifecycle lowered it 19 928 -> 19 821 for -107 lines:
# core/supervisor.go -310 (deleted: Supervisor, its device and selection
# copy, restore, the six forwarding methods), rfb/client.go -11
# (AdoptShadow and the presented token; DialResume takes the previous
# link and copies its frame on a resume); core/proxy.go +193 (the link
# stretch the pumps and presenter read, Connect, the run loop's redial and
# relink, Reconnects/Resumes/LastError, the three harness shims, bytes
# spanning links, sorted id lists; restoreOutput, negotiateOutput and
# core.DialResume deleted), cmd/uniint-proxy/main.go +14 (detach, the
# mirrors in devices, the console help), core/events.go +5 (package doc),
# gfx/framebuffer.go +1 (Clone skips the zeroing), netsim/netsim.go +1.
# One lock for the hub's home table lowered it 19 821 -> 19 763 for -58
# lines: hub/hub.go -68 (shard, snapshot, publish, hashID, shardFor,
# shardCount, lookup, entry.id, entry.evicted, touch, the resident
# counter, the flag-then-refcount ordering, Route's retry loop and its
# livelock error, ServeConn's preamble deadline; one map under mu, admitMu,
# admit, pin, refuse and unlist added), fed/cluster.go -4 (the preamble
# deadline and close), cmd/uniint-proxy/main.go -1 (detach's RemoveMirror);
# hub/preamble.go +9 (ReadPreamble sets and clears the deadline and closes
# the conn on an error; preambleTimeout moved here), core/proxy.go +6
# (DetachOutput drops the mirror and waits out a presentation).
# Close means joined lowered it 19 763 -> 19 762 for -1 line: uniint.go
# -42 (Session's own Home/Display/App/Server fields, serverErr and
# proxyErr, its WaitIdle and closeOnce, assemble folded into
# NewSessionForHub, HubSession's closeOnce), fed/cluster.go -13
# (migrate's Release retry loop, its deadline and its Get re-check;
# AddNode's member snapshot), hub/host.go -12 (Host's second, bulleted
# copy of its method docs), sched/pool.go -7 (Pool.Queued, now a helper in
# its tests), core/proxy.go -5 (NewProxy folded into Dial); hub/hub.go +33
# (the unpin signal and await replacing Drain's and Close's polls, Release
# waiting out pins, Serve's joined goroutines and the preamble conns Close
# closes, the janitor's counted fire; unlist, janitorMu and the tile-cache
# paragraph of the package doc deleted), leakcheck/leakcheck.go +17 (the
# stack check replacing count-and-settle), cmd/obslint/main.go +12 (the
# no-sleep and named-joiner rules), appliance/appliance.go +7 (StopTicker
# waits out a fire it could not stop), uniserver/server.go +5 (Attach
# waits out a fired handshake bound; Close joins the lot janitor's fire),
# obslint fixtures +4.
# One way a session learns of damage lowered it 19 762 -> 19 710 for -52
# lines: uniserver/server.go -81 (addDirty, enqueue, processRequest,
# drainDirtyLocked, takeDirtyLocked, recycleDirty, the pump's session
# snapshot and its empty-lot rule, the writer's second lock on its
# request slices; answer, incremental, gather and render added, and
# Close closing every connection Attach serves), uniserver/lot.go +28
# (the cursor type, its take and the catch-up count; retire's outbox
# fold-back and the pumpMu holds in register and retire deleted),
# uniserver/migrate.go +1.
LOC_MAX ?= 19710

.PHONY: all build test vet race race-takeover fuzz-smoke fmt-check cover cover-gate soak bench bench-out bench-gate bench-baseline profile obslint docs-check trace-demo loc loc-gate examples

all: build test

# cover writes the coverage profile the gate consumes.
cover:
	$(GO) test -race -coverprofile=coverage.out -covermode=atomic ./...

# cover-gate fails (exit 1) when total statement coverage in coverage.out
# drops below COVER_MIN.
cover-gate:
	$(GO) run ./cmd/covgate -profile coverage.out -min $(COVER_MIN)

# soak runs the seeded chaos test (roam workload through netsim fault
# injection, race detector on). Override the knobs for a longer local
# run, e.g.:  SOAK_SEED=7 SOAK_HOPS=40 SOAK_DEVICES=8 make soak
soak:
	$(GO) test -race -run TestChaosSoak -v -count=1 .

build:
	$(GO) build ./...

# obslint enforces the observability naming contract (snake_case metric
# names, _total counters, _seconds histograms, snake_case trace stages)
# and, with -testonly, that every exported identifier in internal/ and
# uniint.go has a non-test caller or a line in TESTONLY.allow. CI runs it
# in the staticcheck job.
obslint:
	$(GO) run ./cmd/obslint -testonly .

# examples runs the four README walk-throughs; each exits 0 on its own.
# They are callers the -testonly census counts, so CI keeps them running.
examples:
	@for e in quickstart livingroom kitchenvoice unmodified; do \
		echo "== examples/$$e"; $(GO) run ./examples/$$e >/dev/null || exit 1; done

# docs-check keeps the documentation honest: the wire-spec coverage test
# (every msg*/Enc* constant in internal/rfb must be named in
# docs/WIRE.md), the doc lint (every package and exported constant
# documented) and the reference check (relative markdown links, command
# directories in code blocks, markdown files named in Go comments).
docs-check:
	$(GO) test -run TestWireDocCoversAllConstants -count=1 .
	$(GO) run ./cmd/obslint -doclint -mdlinks .

# trace-demo records a fully-sampled keypad workload against a real hub
# child and writes trace.json — drop it into chrome://tracing or
# ui.perfetto.dev to see per-stage spans from device event to pixels on
# the wire, hub and proxy side merged.
trace-demo:
	$(GO) run ./cmd/uniload -workload keypad -seconds 2 -trace 1 -trace-out trace.json

# loc prints the costs ROADMAP says to track: non-test Go lines (all of
# them, and without the frozen benchmark driver), the number of methods a
# home must implement to be hosted (hub.Host), and how many exceptions the
# -testonly rule still carries (lines of TESTONLY.allow that are entries).
LOC_OUTSIDE  = git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^cmd/uniload/' | xargs cat | wc -l
HOST_METHODS = sed -n '/^type Host interface {/,/^}/p' internal/hub/host.go | grep -c '^	[A-Z][A-Za-z]*('
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | xargs cat | wc -l | xargs echo "non-test Go LOC:"
	@$(LOC_OUTSIDE) | xargs echo "non-test Go LOC outside cmd/uniload:"
	@$(HOST_METHODS) | xargs echo "hub.Host methods:"
	@grep -c '^[^#]' TESTONLY.allow | xargs echo "TESTONLY.allow entries:"

# loc-gate fails (exit 1) when either cost has grown: the line count past
# LOC_MAX, or hub.Host past its 8 methods. CI runs it in the staticcheck
# job.
loc-gate:
	@loc=$$($(LOC_OUTSIDE)); n=$$($(HOST_METHODS)); \
	echo "non-test Go LOC outside cmd/uniload: $$loc (max $(LOC_MAX)); hub.Host methods: $$n (max 8)"; \
	[ $$loc -le $(LOC_MAX) ] && [ $$n -le 8 ]

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# race-takeover repeats the tests whose subject is a race — a resume token
# presented while its session is still live, 500 zero-delay redials over
# loopback TCP, concurrent cold joins sharing one memoised frame body, and
# the session table's seeded model (every lifecycle edge, including stalled
# handshakes taken over and Close mid-claim), and a traced interaction
# carried across a park window to its post-resume flush, and the proxy
# swapping the link beneath its devices (every redial test of
# internal/core), and the hub's home table racing admissions, routes,
# evictions, resume claims, drain and Close under its one lock, and the
# joins Close makes: a hub closed under a client mid-preamble, Release
# waiting out a pin, a federation drain's migration, and a Session's pipe
# cut and resumed, and the writer turn's ownership of a session's damage
# (the journal's live and parked readers, pipelined requests coalescing
# under backpressure) and a server closed under a client mid-handshake —
# so a window that opens one run in a hundred still fails the PR. CI runs
# it in the test job.
race-takeover:
	$(GO) test -race -count=5 -run 'Takeover|TestResumeHammer|TestColdJoinSharedMemo|TestSessionTableModel|TestTraceSpansSurviveParkResume|TestSupervisor|TestRelink|TestAdmitConcurrentSingleCreation|TestConcurrentRouteAndEvict|TestAdmitRacingCloseLeaksNothing|TestEvictionRacingResumeClaim|TestDrainRacesAdmitAndTokenResume|TestCloseMidPreamble|TestReleaseWaitsOutPins|TestClusterDrainMigratesParked|TestSessionResumesACutPipe|TestJournal|TestBackpressureCoalescesUpdates|TestCloseMidHandshake' . ./internal/uniserver ./internal/core ./internal/hub ./internal/fed

# fuzz-smoke mutates every peer-facing parser's seeds for 10 s each: the
# client-message parser, the client's rectangle decoders, the migration
# record and the routing preamble; and the frame's content keys, whose
# row memo every pixel writer must keep current.
# -fuzz takes one target per invocation, so this is the one list of them.
# The committed seeds already run as plain tests under `make test`. CI
# runs it in the test job.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzFeedSplit$$' -fuzztime 10s ./internal/rfb
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRect$$' -fuzztime 10s ./internal/rfb
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMigration$$' -fuzztime 10s ./internal/rfb
	$(GO) test -run '^$$' -fuzz '^FuzzParsePreamble$$' -fuzztime 10s ./internal/hub
	$(GO) test -run '^$$' -fuzz '^FuzzFrameKeys$$' -fuzztime 10s ./internal/gfx

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

bench:
	$(GO) test -run NONE -bench . -benchtime $(BENCHTIME) -benchmem .

# bench-out runs exactly the gated benchmark set (macro pass + micro pass)
# and prints raw results.
bench-out:
	@{ $(GO) test -run NONE -bench '$(GATE_BENCH)' -benchtime $(BENCHTIME) -benchmem $(BENCH_PKGS) && \
	   $(GO) test -run NONE -bench '$(GATE_BENCH_MICRO)' -benchtime $(BENCHTIME_MICRO) -benchmem $(BENCH_PKGS) ; }

# bench-gate fails (exit 1) when the measured results regress beyond the
# tolerances against BENCH_BASELINE.json.
bench-gate:
	@{ $(GO) test -run NONE -bench '$(GATE_BENCH)' -benchtime $(BENCHTIME) -benchmem $(BENCH_PKGS) && \
	   $(GO) test -run NONE -bench '$(GATE_BENCH_MICRO)' -benchtime $(BENCHTIME_MICRO) -benchmem $(BENCH_PKGS) ; } \
		| $(GO) run ./cmd/benchgate -tolerance $(NS_TOL) -extra-tolerance $(EXTRA_TOL)

# bench-baseline regenerates BENCH_BASELINE.json from two local runs of
# the gated set; benchgate -update keeps the worst observation per
# benchmark, so the committed ceiling covers the machine's slow mode and
# a lucky fast run cannot produce a baseline the next run flaps against.
bench-baseline:
	@{ $(GO) test -run NONE -bench '$(GATE_BENCH)' -benchtime $(BENCHTIME) -benchmem $(BENCH_PKGS) && \
	   $(GO) test -run NONE -bench '$(GATE_BENCH_MICRO)' -benchtime $(BENCHTIME_MICRO) -benchmem $(BENCH_PKGS) && \
	   $(GO) test -run NONE -bench '$(GATE_BENCH)' -benchtime $(BENCHTIME) -benchmem $(BENCH_PKGS) && \
	   $(GO) test -run NONE -bench '$(GATE_BENCH_MICRO)' -benchtime $(BENCHTIME_MICRO) -benchmem $(BENCH_PKGS) ; } \
		| $(GO) run ./cmd/benchgate -update -note "make bench-baseline, benchtime $(BENCHTIME)/$(BENCHTIME_MICRO), worst of 2 runs"

# profile captures CPU and allocation profiles of the render/encode hot
# path. Inspect with `go tool pprof cpu.prof` (or mem.prof). For a live
# hub, start unihub with -pprof and point pprof at the metrics address.
PROFILE_BENCH ?= BenchmarkRenderWidget|BenchmarkE2bRender
profile:
	$(GO) test -run NONE -bench '$(PROFILE_BENCH)' -benchtime 2000x -benchmem \
		-cpuprofile cpu.prof -memprofile mem.prof .
	@echo "profiles written: cpu.prof mem.prof — view with 'go tool pprof cpu.prof'"
