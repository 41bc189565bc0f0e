package workload

import (
	"fmt"
	"math/rand"
)

// Roaming load generation: the workload behind the session-resilience
// experiments. A device carried through the house (or between houses)
// connects to whatever home hub is nearby, interacts, loses the link,
// and reconnects somewhere else — the paper's "control appliances in a
// uniform way at any places" exercised as a failure-path storm.

// RoamConfig sizes a roaming workload.
type RoamConfig struct {
	// Homes is the number of hub-hosted households the devices hop
	// across (M).
	Homes int
	// Devices is the number of roaming interaction devices.
	Devices int
	// Hops is the number of visits each device makes (default 4). Each
	// hop after the first moves to a different home than the previous
	// visit, so every hop crosses a disconnect/reconnect boundary.
	Hops int
	// StepsPerVisit is the scripted interaction length at each stop
	// (default 6 — a quick adjustment, not a full session).
	StepsPerVisit int
	// Seed makes the hop sequences and scripts deterministic.
	Seed int64
}

// RoamVisit is one stop of a roaming device: a home and the interaction
// performed there.
type RoamVisit struct {
	// HomeID is the hub routing key of the visited home.
	HomeID string
	// Script is the interaction performed while connected.
	Script Script
}

// RoamPlan is one device's full itinerary.
type RoamPlan struct {
	// DeviceID is unique across the workload ("roam-00", "roam-01", …).
	DeviceID string
	// Visits is the ordered hop sequence.
	Visits []RoamVisit
}

// Steps counts the scripted interactions across all visits.
func (p RoamPlan) Steps() int {
	n := 0
	for _, v := range p.Visits {
		n += len(v.Script)
	}
	return n
}

// Roam expands a config into per-device hop itineraries. Consecutive
// visits always differ in home (when Homes > 1), so every hop exercises
// the disconnect/reconnect path; scripts are seeded per device and hop.
func Roam(cfg RoamConfig) []RoamPlan {
	if cfg.Homes <= 0 {
		cfg.Homes = 1
	}
	if cfg.Hops <= 0 {
		cfg.Hops = 4
	}
	if cfg.StepsPerVisit <= 0 {
		cfg.StepsPerVisit = 6
	}
	out := make([]RoamPlan, 0, cfg.Devices)
	for d := 0; d < cfg.Devices; d++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(d)*7_919))
		plan := RoamPlan{DeviceID: fmt.Sprintf("roam-%02d", d)}
		cur := rng.Intn(cfg.Homes)
		for hop := 0; hop < cfg.Hops; hop++ {
			if hop > 0 && cfg.Homes > 1 {
				// Hop somewhere else: draw from the other M-1 homes.
				next := rng.Intn(cfg.Homes - 1)
				if next >= cur {
					next++
				}
				cur = next
			}
			scriptSeed := cfg.Seed + int64(d)*1_000_003 + int64(hop)*10_007
			plan.Visits = append(plan.Visits, RoamVisit{
				HomeID: HomeID(cur),
				Script: RandomSession(cfg.StepsPerVisit, scriptSeed),
			})
		}
		out = append(out, plan)
	}
	return out
}

// HomeID formats the canonical hub home ID for index i.
func HomeID(i int) string { return fmt.Sprintf("home-%04d", i) }

// sessionKeys is the weighted key mix of a realistic control-panel
// session: mostly focus traversal and activation, with value nudges.
var sessionKeys = []struct {
	key    string
	weight int
}{
	{"#", 30},  // focus next
	{"ok", 25}, // activate
	{"6", 15},  // value right
	{"4", 10},  // value left
	{"2", 10},  // focus up
	{"8", 10},  // focus down
}

// RandomSession generates a seeded phone-keypad interaction session of
// the given length, drawn from the weighted key mix. Every step uses the
// phone class so scripts replay identically across output devices, like
// StandardSession.
func RandomSession(steps int, seed int64) Script {
	rng := rand.New(rand.NewSource(seed))
	total := 0
	for _, k := range sessionKeys {
		total += k.weight
	}
	s := make(Script, 0, steps)
	for i := 0; i < steps; i++ {
		n := rng.Intn(total)
		for _, k := range sessionKeys {
			if n < k.weight {
				s = append(s, Step{Device: "phone", Action: "key", Arg: k.key})
				break
			}
			n -= k.weight
		}
	}
	return s
}
