package metrics

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("events_total") != c {
		t.Fatal("second lookup returned a different counter")
	}

	g := r.Gauge("sessions")
	g.Set(10)
	g.Add(-3)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.002, 0.02, 0.2, 5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	want := []uint64{1, 1, 1, 2} // last is the +Inf overflow bucket
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if math.Abs(s.Sum-5.2225) > 1e-9 {
		t.Fatalf("sum = %g, want 5.2225", s.Sum)
	}
}

func TestHistogramBoundaryLandsInBucket(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(1) // exactly on a bound: belongs to that bucket (le semantics)
	s := h.Snapshot()
	if s.Counts[0] != 1 {
		t.Fatalf("counts = %v, want the sample in bucket le=1", s.Counts)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram(LatencyBuckets())
	for i := 0; i < 1000; i++ {
		h.ObserveDuration(time.Duration(i) * time.Microsecond) // 0..1ms uniform
	}
	s := h.Snapshot()
	p50 := s.Quantile(0.5)
	if p50 < 100e-6 || p50 > 900e-6 {
		t.Fatalf("p50 = %g, want ~500µs", p50)
	}
	if q := s.Quantile(0.99); q < p50 {
		t.Fatalf("p99 %g < p50 %g", q, p50)
	}
	if (HistogramSnapshot{}).Quantile(0.5) != 0 {
		t.Fatal("empty snapshot quantile should be 0")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram(LatencyBuckets())
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(seed*i%100) * 1e-5)
			}
		}(w + 1)
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
	var sum uint64
	s := h.Snapshot()
	for _, c := range s.Counts {
		sum += c
	}
	if sum != workers*per {
		t.Fatalf("bucket sum = %d, want %d", sum, workers*per)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Add(1)
	s1 := r.Snapshot()
	c.Add(10)
	if s1.Counters["x"] != 1 {
		t.Fatal("snapshot mutated after capture")
	}
	if r.Snapshot().Counters["x"] != 11 {
		t.Fatal("registry did not advance")
	}
}

func TestDefaultRegistryShared(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default must return the same registry")
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("encode_bytes_total").Add(42)
	r.Gauge("sessions").Set(3)
	h := r.Histogram("encode_seconds", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.5)

	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Counters   map[string]int64 `json:"counters"`
		Gauges     map[string]int64 `json:"gauges"`
		Histograms map[string]struct {
			Count uint64  `json:"count"`
			Sum   float64 `json:"sum"`
			P95   float64 `json:"p95"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if out.Counters["encode_bytes_total"] != 42 || out.Gauges["sessions"] != 3 {
		t.Fatalf("scalar values wrong: %+v", out)
	}
	hj, ok := out.Histograms["encode_seconds"]
	if !ok || hj.Count != 2 || hj.Sum != 0.5005 {
		t.Fatalf("histogram summary wrong: %+v", hj)
	}
}

func TestHistogramMaxAndOverflowQuantile(t *testing.T) {
	h := newHistogram([]float64{0.001, 0.01})
	s := h.Snapshot()
	if s.Max != 0 {
		t.Fatalf("empty histogram Max = %g, want 0", s.Max)
	}
	h.Observe(0.0005)
	h.Observe(7.5) // overflow bucket
	s = h.Snapshot()
	if s.Max != 7.5 {
		t.Fatalf("Max = %g, want 7.5", s.Max)
	}
	// p99 lands in the +Inf bucket: it must report the max observed
	// sample, not clamp to the last finite bound (the old behaviour
	// understated the tail by orders of magnitude).
	if q := s.Quantile(0.99); q != 7.5 {
		t.Fatalf("overflow quantile = %g, want Max (7.5)", q)
	}
	// A snapshot built by hand without Max keeps the old clamp.
	legacy := HistogramSnapshot{Bounds: []float64{0.01}, Counts: []uint64{0, 4}, Count: 4}
	if q := legacy.Quantile(0.99); q != 0.01 {
		t.Fatalf("legacy overflow quantile = %g, want last bound", q)
	}
}

func TestObserveExemplar(t *testing.T) {
	h := newHistogram([]float64{0.001, 0.01})
	h.ObserveExemplar(0.002, 0) // trace 0: plain Observe, no exemplar
	s := h.Snapshot()
	if s.ExemplarTrace != 0 {
		t.Fatalf("untraced observation left an exemplar: %+v", s)
	}
	before := time.Now().UnixNano()
	h.ObserveExemplar(0.005, 0xbeef)
	s = h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("count = %d, want 2", s.Count)
	}
	if s.ExemplarTrace != 0xbeef || s.ExemplarValue != 0.005 {
		t.Fatalf("exemplar = trace %#x value %g, want 0xbeef 0.005", s.ExemplarTrace, s.ExemplarValue)
	}
	if s.ExemplarAt < before {
		t.Fatalf("exemplar timestamp %d predates the observation (%d)", s.ExemplarAt, before)
	}
	h.ObserveExemplar(0.02, 0xcafe) // newest traced sample wins
	if s = h.Snapshot(); s.ExemplarTrace != 0xcafe {
		t.Fatalf("exemplar not replaced: %#x", s.ExemplarTrace)
	}
}

func TestWritePrometheusCumulativeLe(t *testing.T) {
	r := NewRegistry()
	r.Counter("frames_total").Add(9)
	r.Gauge("sessions").Set(2)
	h := r.Histogram("route_seconds", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.002)
	h.Observe(0.02)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE frames_total counter\nframes_total 9\n",
		"# TYPE sessions gauge\nsessions 2\n",
		"# TYPE route_seconds histogram\n",
		// le buckets are cumulative: each line includes every smaller bucket.
		"route_seconds_bucket{le=\"0.001\"} 1\n",
		"route_seconds_bucket{le=\"0.01\"} 2\n",
		"route_seconds_bucket{le=\"0.1\"} 3\n",
		"route_seconds_bucket{le=\"+Inf\"} 4\n",
		"route_seconds_count 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusExemplarSuffix(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("input_to_update_seconds", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.ObserveExemplar(0.002, 0x1f)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// The exemplar rides the bucket line the sample was counted into
	// (le="0.01" for 0.002), not the +Inf line.
	var exLine string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "# {trace_id=") {
			if exLine != "" {
				t.Fatalf("exemplar on more than one line:\n%s", out)
			}
			exLine = line
		}
	}
	if exLine == "" {
		t.Fatalf("no exemplar suffix in output:\n%s", out)
	}
	if !strings.HasPrefix(exLine, `input_to_update_seconds_bucket{le="0.01"} 2 # {trace_id="0x1f"} 0.002 `) {
		t.Fatalf("exemplar line = %q", exLine)
	}
}

func TestEscapeLabel(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"plain", "plain"},
		{`back\slash`, `back\\slash`},
		{`say "hi"`, `say \"hi\"`},
		{"line\nbreak", `line\nbreak`},
		{"all\\\"\n", `all\\\"\n`},
	} {
		if got := escapeLabel(tc.in); got != tc.want {
			t.Fatalf("escapeLabel(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
