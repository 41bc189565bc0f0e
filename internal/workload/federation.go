package workload

import (
	"fmt"
	"math/rand"
)

// Federation load generation: the workload behind the hub-of-hubs
// experiments. A FederationConfig describes N hub nodes fronting M homes
// while K devices roam — and, interleaved with the roaming, a schedule
// of topology events (node joins, drain-for-deploy evacuations) that
// force the federation's rebalance and live-migration paths while
// sessions are in flight.

// TopologyEvent is one scheduled membership change.
type TopologyEvent struct {
	// AfterHop schedules the event once every device has completed this
	// many hops (0: before any interaction).
	AfterHop int
	// Kind is "join" (the node enters the ring, pulling its rendezvous
	// slice of homes in) or "drain" (the node evacuates every resident
	// home and leaves).
	Kind string
	// Node is the member joining or draining.
	Node string
}

// FederationConfig sizes a federated workload.
type FederationConfig struct {
	// Nodes is the number of hub nodes in the initial ring (N).
	Nodes int
	// Homes is the number of households spread across the ring (M).
	Homes int
	// Devices is the number of roaming interaction devices (K).
	Devices int
	// Hops is the number of visits each device makes (default 4).
	Hops int
	// StepsPerVisit is the scripted interaction length per stop
	// (default 6).
	StepsPerVisit int
	// Joins schedules this many extra nodes joining mid-run (spread
	// evenly over the hop timeline).
	Joins int
	// Drains schedules this many drain-for-deploy evacuations mid-run
	// (round-robin over the initial nodes, spread over the timeline).
	Drains int
	// Seed makes itineraries, scripts, and the event schedule
	// deterministic.
	Seed int64
}

// FederationPlan is the expanded workload: the initial ring membership,
// one roaming itinerary per device, and the topology-event schedule.
type FederationPlan struct {
	// Nodes is the initial ring membership.
	Nodes []string
	// Plans is the per-device roaming itinerary (home IDs shared with
	// the Roam workload, so the same redialing proxies drive both).
	Plans []RoamPlan
	// Topology is the event schedule, ordered by AfterHop.
	Topology []TopologyEvent
}

// Steps counts scripted interactions across every device.
func (p FederationPlan) Steps() int {
	n := 0
	for _, dp := range p.Plans {
		n += dp.Steps()
	}
	return n
}

// NodeID formats the canonical federation node name for index i
// ("node-00", "node-01", …) — joins continue the sequence past the
// initial ring.
func NodeID(i int) string { return fmt.Sprintf("node-%02d", i) }

// Federation expands a config into a deterministic federated workload.
// Roaming itineraries reuse the Roam generator (same derived seeds, so a
// federation run is comparable to a plain roam run over the same
// config); topology events interleave joins and drains evenly across the
// hop timeline, never draining below one member.
func Federation(cfg FederationConfig) FederationPlan {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 2
	}
	if cfg.Hops <= 0 {
		cfg.Hops = 4
	}
	plan := FederationPlan{
		Plans: Roam(RoamConfig{
			Homes:         cfg.Homes,
			Devices:       cfg.Devices,
			Hops:          cfg.Hops,
			StepsPerVisit: cfg.StepsPerVisit,
			Seed:          cfg.Seed,
		}),
	}
	for i := 0; i < cfg.Nodes; i++ {
		plan.Nodes = append(plan.Nodes, NodeID(i))
	}

	events := cfg.Joins + cfg.Drains
	if events == 0 {
		return plan
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed_fed))
	// Spread events over hops 1..Hops-1 (an event at hop h fires after
	// every device's h-th visit, so each one lands between interaction
	// waves rather than before or after the whole run).
	members := cfg.Nodes
	nextJoin := cfg.Nodes
	drainFrom := 0
	joins, drains := cfg.Joins, cfg.Drains
	for i := 0; i < events; i++ {
		hop := 1 + (i*(cfg.Hops-1))/events
		if hop >= cfg.Hops {
			hop = cfg.Hops - 1
		}
		// Interleave: pick randomly among the remaining event kinds, but
		// never drain the last member.
		drainOK := drains > 0 && members > 1
		doJoin := joins > 0 && (!drainOK || rng.Intn(joins+drains) < joins)
		if doJoin {
			plan.Topology = append(plan.Topology, TopologyEvent{
				AfterHop: hop, Kind: "join", Node: NodeID(nextJoin),
			})
			nextJoin++
			members++
			joins--
		} else if drainOK {
			plan.Topology = append(plan.Topology, TopologyEvent{
				AfterHop: hop, Kind: "drain", Node: NodeID(drainFrom),
			})
			drainFrom++
			members--
			drains--
		}
	}
	return plan
}
