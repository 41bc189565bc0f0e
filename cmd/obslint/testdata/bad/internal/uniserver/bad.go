package uniserver

const Limit = 1

type registry struct{}

func (registry) Counter(string)              {}
func (registry) Histogram(string, []float64) {}

// Live is called below, so its TESTONLY.allow entry is stale. The design
// is in docs/GONE.md.
func Live() {
	var reg registry
	reg.Counter("BadName")
	reg.Counter("rfb_copyrect_unchanged_total")
	reg.Histogram("encode_latency", nil)
	go Live()
	_ = Options{Unset: 1}
}

// OnlyTests is called by bad_test.go alone.
func OnlyTests() {}

// Options holds two knobs: havi sets Set, only this package names Unset.
type Options struct{ Set, Unset int }
