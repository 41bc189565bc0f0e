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
# Packages holding gated benchmarks: the root end-to-end suite plus the
# event runtime (timer-wheel re-arm). Patterns that match nothing in a
# package are simply skipped there.
BENCH_PKGS ?= . ./internal/sched
# Sub-100µs benchmarks run with many more iterations: at 100x a ~3µs/op
# bench measures a ~0.3ms window, where a single scheduler preemption on a
# shared runner blows through NS_TOL. 10000x widens the window ~100x and
# averages the noise out; these benches are all fast, so the extra wall
# time is small. The Input* set pins the batched/coalesced input pipeline
# at zero allocations per event end to end (wire write, read loop, queue,
# dispatch).
GATE_BENCH_MICRO ?= BenchmarkRenderWidget|BenchmarkRenderText|BenchmarkE2bRender|BenchmarkInputBatch|BenchmarkInputCoalesce|BenchmarkInputFlood|BenchmarkE2bInput|BenchmarkTraceOverhead|BenchmarkTimerWheel
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
LOC_MAX ?= 20188

.PHONY: all build test vet race race-takeover fmt-check cover cover-gate soak bench bench-out bench-gate bench-baseline profile obslint docs-check trace-demo loc loc-gate examples

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
# presented while its session is still live, and 500 zero-delay redials
# over loopback TCP — so a window that opens one run in a hundred still
# fails the PR. CI runs it in the test job.
race-takeover:
	$(GO) test -race -count=5 -run 'Takeover|TestResumeHammer' . ./internal/uniserver

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
