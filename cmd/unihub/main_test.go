package main

import (
	"runtime"
	"testing"

	"uniint/internal/leakcheck"
	"uniint/internal/metrics"
	"uniint/internal/sched"
	"uniint/internal/workload"
)

// TestHomesShareTheWorkerBudget is the oracle for docs/ARCHITECTURE.md's
// "worker count is a process budget" and "a resident home costs a struct":
// a hub assembled the way the daemon assembles it, with real homes
// admitted, runs exactly DefaultWorkers pool workers — what /healthz
// reports as sched.workers — and admitting 48 more homes adds no
// goroutine. When every home built a private pool the first read 4 + 4
// per home; when every home ran its own HAVi dispatcher the second read
// +48.
func TestHomesShareTheWorkerBudget(t *testing.T) {
	cfg := config{width: 64, height: 48}
	h, err := newHub(cfg, homeFactory([]string{"tv", "lamp"}, cfg.width, cfg.height))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	admit := func(from, to int) {
		for i := from; i < to; i++ {
			if _, err := h.Admit(workload.HomeID(i)); err != nil {
				t.Fatal(err)
			}
		}
		if h.Homes() != to {
			t.Fatalf("Homes() = %d, want %d", h.Homes(), to)
		}
	}
	admit(0, 16)
	got := metrics.Default().Snapshot().Gauges["sched_workers"]
	if want := int64(sched.DefaultWorkers()); got != want {
		t.Errorf("sched_workers = %d with 16 homes resident, want the process budget %d", got, want)
	}
	at16 := runtime.NumGoroutine()
	admit(16, 64)
	// A goroutine budget, not a leak check: Assert counts what 48 more
	// resident homes cost, which must be nothing.
	leakcheck.Assert(t, at16, "64 homes resident, as many goroutines as at 16")
}
