// Package uniserver has a session-path name, so naked go statements count,
// and declares one identifier per way of staying alive under -testonly.
package uniserver

// Limit is documented, as -doclint wants.
const Limit = 1

type registry struct{}

func (registry) Counter(string)              {}
func (registry) Histogram(string, []float64) {}

// Used is called by cmd/tool.
func Used() {
	var reg registry
	reg.Counter("sessions_total")
	reg.Histogram("encode_seconds", nil)
	// goroutine-ok: the fixture's one deliberate spawn.
	go Used()
}

// FromExample is called by name only from examples/demo.
func FromExample() {}

// Allowed is referenced only by ok_test.go and named in TESTONLY.allow.
func Allowed() {}

type sizer interface{ Size() int }

type base struct{}

// Size is never called by name: Measure calls it through sizer, which Box
// satisfies by embedding base.
func (base) Size() int { return Limit }

// Box has Size in its method set through base.
type Box struct{ base }

// Measure is called by cmd/tool.
func Measure(s sizer) int { return s.Size() }
