package main

import (
	"testing"

	"uniint/internal/metrics"
	"uniint/internal/sched"
	"uniint/internal/workload"
)

// TestHomesShareTheWorkerBudget is the oracle for docs/ARCHITECTURE.md's
// "worker count is a process budget": a hub assembled the way the daemon
// assembles it, with real homes admitted, runs exactly DefaultWorkers pool
// workers — what /healthz reports as sched.workers. When every home built
// a private pool this read 4 + 4 per home.
func TestHomesShareTheWorkerBudget(t *testing.T) {
	cfg := config{shards: 4, width: 64, height: 48}
	h, err := newHub(cfg, homeFactory([]string{"tv", "lamp"}, cfg.width, cfg.height))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for i := 0; i < 16; i++ {
		if _, err := h.Admit(workload.HomeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if h.Homes() != 16 {
		t.Fatalf("Homes() = %d, want 16", h.Homes())
	}
	got := metrics.Default().Snapshot().Gauges["sched_workers"]
	if want := int64(sched.DefaultWorkers()); got != want {
		t.Errorf("sched_workers = %d with 16 homes resident, want the process budget %d", got, want)
	}
}
