package uniserver

import "testing"

func counter(name string) int64 { registry{}.Counter(name); return 0 }

func TestAllowed(t *testing.T) { Allowed(); _ = counter("sessions_total") }
