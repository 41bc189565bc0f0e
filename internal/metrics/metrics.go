// Package metrics is a dependency-free instrumentation subsystem for the
// hot paths of the universal-interaction stack: atomic counters and
// gauges, fixed-bucket latency histograms, and a registry that exports
// everything as a snapshot or a plain-text page (the format understood by
// Prometheus-style scrapers, written by hand to keep the package free of
// third-party dependencies).
//
// Hot paths pre-resolve instrument pointers once (package init or
// construction time) and then touch only atomics, so recording a sample
// costs a handful of nanoseconds and never takes a lock.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the counter to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value that may go up and down.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram. Bucket upper bounds are set at
// construction and never change, so observation is lock-free: a binary
// search over the bounds plus two atomic adds.
type Histogram struct {
	bounds  []float64       // ascending upper bounds; an implicit +Inf bucket follows
	counts  []atomic.Uint64 // len(bounds)+1
	count   atomic.Uint64
	sum     atomic.Uint64 // float64 bits, updated by CAS
	maxBits atomic.Uint64 // float64 bits of the largest sample; -Inf until first Observe

	// Exemplar: the most recent traced sample (ObserveExemplar with a
	// non-zero trace id). The three fields are independent atomics; a
	// reader racing a writer can see a torn triplet, which is acceptable
	// for a debugging aid that links metrics to traces best-effort.
	exVal   atomic.Uint64 // float64 bits
	exTrace atomic.Uint64
	exAt    atomic.Int64 // unix nanoseconds
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	h := &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) = +Inf
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveExemplar records one sample and, when traceID is non-zero,
// remembers it as the histogram's exemplar: a concrete traced interaction
// a scraper can pivot to from the aggregate series. With traceID zero it
// is exactly Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID uint64) {
	h.Observe(v)
	if traceID == 0 {
		return
	}
	h.exVal.Store(math.Float64bits(v))
	h.exAt.Store(time.Now().UnixNano())
	h.exTrace.Store(traceID)
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Snapshot captures the histogram state. Count is derived from the
// summed bucket counts, not the separate total atomic, so the cumulative
// bucket series is monotone even when the snapshot races an Observe
// mid-update (bucket incremented, total not yet).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds, // immutable after construction
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	s.Sum = math.Float64frombits(h.sum.Load())
	if m := math.Float64frombits(h.maxBits.Load()); !math.IsInf(m, -1) {
		s.Max = m
	}
	if tid := h.exTrace.Load(); tid != 0 {
		s.ExemplarTrace = tid
		s.ExemplarValue = math.Float64frombits(h.exVal.Load())
		s.ExemplarAt = h.exAt.Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram. Counts has one
// more element than Bounds; the last element is the +Inf overflow bucket.
// Max is the largest sample ever observed (0 when empty). The Exemplar
// fields describe the most recent traced sample (ExemplarTrace 0: none).
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
	Max    float64

	ExemplarValue float64
	ExemplarTrace uint64
	ExemplarAt    int64
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// within the containing bucket. A quantile landing in the +Inf overflow
// bucket returns the largest sample observed (Max) rather than the last
// finite bound: the bound would understate a tail that by definition
// exceeds it, and Max is the tightest upper estimate the histogram holds.
// (Snapshots built by hand without Max fall back to the last bound.)
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(s.Bounds) { // overflow bucket
			if len(s.Bounds) > 0 {
				if last := s.Bounds[len(s.Bounds)-1]; s.Max < last {
					return last
				}
			}
			return s.Max
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	if len(s.Bounds) == 0 {
		return 0
	}
	return s.Bounds[len(s.Bounds)-1]
}

// LatencyBuckets returns the default latency bounds in seconds: 10 µs to
// ~5 s, doubling — wide enough for the in-process fast path and the
// simulated Bluetooth-class links alike.
func LatencyBuckets() []float64 {
	out := make([]float64, 0, 20)
	for v := 10e-6; v < 5.0; v *= 2 {
		out = append(out, v)
	}
	return out
}

// DurationBuckets returns long-duration bounds in seconds: 1 ms to
// ~17 min, doubling — sized for lifecycle spans (detach windows, drain
// waits) rather than hot-path latencies.
func DurationBuckets() []float64 {
	out := make([]float64, 0, 21)
	for v := 1e-3; v < 1024; v *= 2 {
		out = append(out, v)
	}
	return out
}

// Registry is a named collection of instruments. Lookup is read-locked;
// hot paths should resolve instruments once and keep the pointers.
type Registry struct {
	mu     sync.RWMutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry used by the built-in
// instrumentation (proxy, server, hub).
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counts[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counts[name]; c == nil {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every instrument in a registry.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
}

// Snapshot captures every instrument. Instruments are sampled
// individually, not atomically as a set — but in a fixed order: gauges
// before counters, and gauges by name. Observers wait for a gauge to read
// "quiet" (server_sessions back at zero) and then trust the rest of the
// same snapshot, so that gauge must have been sampled before the counters
// it vouches for — and before session_parked, which name order gives it.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counts)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for _, name := range sortedKeys(r.gauges) {
		s.Gauges[name] = r.gauges[name].Value()
	}
	for name, c := range r.counts {
		s.Counters[name] = c.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// WriteJSON renders the registry snapshot as one JSON object with
// "counters", "gauges" and "histograms" members — the machine-readable
// sibling of WritePrometheus, used by tooling that ingests a metrics snapshot
// (benchmark reports, the hub daemon's scrape page). Histograms are
// summarized as {count, sum, p50, p95, p99}.
func (r *Registry) WriteJSON(w io.Writer) error {
	s := r.Snapshot()
	type histJSON struct {
		Count uint64  `json:"count"`
		Sum   float64 `json:"sum"`
		P50   float64 `json:"p50"`
		P95   float64 `json:"p95"`
		P99   float64 `json:"p99"`
	}
	out := struct {
		Counters   map[string]int64    `json:"counters"`
		Gauges     map[string]int64    `json:"gauges"`
		Histograms map[string]histJSON `json:"histograms"`
	}{
		Counters:   s.Counters,
		Gauges:     s.Gauges,
		Histograms: make(map[string]histJSON, len(s.Histograms)),
	}
	for name, h := range s.Histograms {
		out.Histograms[name] = histJSON{
			Count: h.Count,
			Sum:   h.Sum,
			P50:   h.Quantile(0.50),
			P95:   h.Quantile(0.95),
			P99:   h.Quantile(0.99),
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WritePrometheus renders the registry in the Prometheus/OpenMetrics
// exposition format: a "# TYPE" header per family, the cumulative
// le-bucket series per histogram, and — when a histogram holds a traced
// exemplar — an OpenMetrics exemplar suffix on the bucket line containing
// it ("... # {trace_id=\"0x…\"} value timestamp"). Label values are
// escaped per the spec (backslash, quote, newline). Families are sorted
// by name so the output is diff-stable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	for _, name := range sortedKeys(s.Counters) {
		p("# TYPE %s counter\n%s %d\n", name, name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		p("# TYPE %s gauge\n%s %d\n", name, name, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		p("# TYPE %s histogram\n", name)
		// The exemplar annotates the first bucket whose upper bound
		// admits it — the bucket the sample was counted into.
		exBucket := -1
		if h.ExemplarTrace != 0 {
			exBucket = sort.SearchFloat64s(h.Bounds, h.ExemplarValue)
		}
		var cum uint64
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			p("%s_bucket{le=\"%s\"} %d", name, escapeLabel(formatBound(b)), cum)
			if i == exBucket {
				p("%s", exemplarSuffix(h))
			}
			p("\n")
		}
		p("%s_bucket{le=\"+Inf\"} %d", name, h.Count)
		if exBucket == len(h.Bounds) {
			p("%s", exemplarSuffix(h))
		}
		p("\n%s_sum %g\n%s_count %d\n", name, h.Sum, name, h.Count)
	}
	return err
}

// exemplarSuffix renders the OpenMetrics exemplar annotation for a bucket
// line: " # {trace_id=\"0x…\"} value timestamp_seconds".
func exemplarSuffix(h HistogramSnapshot) string {
	return fmt.Sprintf(" # {trace_id=\"0x%x\"} %g %.3f",
		h.ExemplarTrace, h.ExemplarValue, float64(h.ExemplarAt)/1e9)
}

// escapeLabel escapes a label value per the Prometheus exposition format:
// backslash, double quote and newline become \\, \" and \n.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func formatBound(b float64) string { return fmt.Sprintf("%g", b) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
