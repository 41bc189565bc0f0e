package workload

import (
	"reflect"
	"testing"
)

func TestRoamDeterministic(t *testing.T) {
	cfg := RoamConfig{Homes: 8, Devices: 4, Hops: 6, StepsPerVisit: 5, Seed: 42}
	a, b := Roam(cfg), Roam(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must yield identical itineraries")
	}
	cfg.Seed = 43
	if reflect.DeepEqual(a, Roam(cfg)) {
		t.Fatal("different seeds should yield different itineraries")
	}
}

func TestRoamEveryHopMoves(t *testing.T) {
	for _, plan := range Roam(RoamConfig{Homes: 3, Devices: 8, Hops: 10, Seed: 7}) {
		if len(plan.Visits) != 10 {
			t.Fatalf("%s: %d visits, want 10", plan.DeviceID, len(plan.Visits))
		}
		for i := 1; i < len(plan.Visits); i++ {
			if plan.Visits[i].HomeID == plan.Visits[i-1].HomeID {
				t.Fatalf("%s: hop %d stayed at %s", plan.DeviceID, i, plan.Visits[i].HomeID)
			}
		}
		if plan.Steps() != 10*6 {
			t.Fatalf("%s: %d steps, want %d", plan.DeviceID, plan.Steps(), 60)
		}
	}
}

func TestRoamSingleHomeDegenerate(t *testing.T) {
	plans := Roam(RoamConfig{Homes: 1, Devices: 2, Hops: 3, Seed: 1})
	for _, plan := range plans {
		for _, v := range plan.Visits {
			if v.HomeID != HomeID(0) {
				t.Fatalf("single-home roam visited %s", v.HomeID)
			}
		}
	}
}

func TestHomeIDFormat(t *testing.T) {
	if HomeID(7) != "home-0007" || HomeID(123) != "home-0123" {
		t.Fatalf("HomeID format: %s %s", HomeID(7), HomeID(123))
	}
}
