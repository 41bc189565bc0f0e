package trace

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// WriteChromeTrace exports every stable span currently in the rings as
// Chrome trace_event JSON (the "JSON Array Format" that chrome://tracing
// and Perfetto load directly): one complete event (ph "X") per span, with
// the trace id as the tid so each interaction renders as its own track.
// Timestamps are microseconds, rebased to the earliest span so the viewer
// opens at t=0.
func WriteChromeTrace(w io.Writer) error {
	return writeChromeTrace(w, Snapshot())
}

func writeChromeTrace(w io.Writer, spans []Span) error {
	base := int64(0)
	for _, s := range spans {
		if base == 0 || s.Start < base {
			base = s.Start
		}
	}
	var b strings.Builder
	b.WriteString(`{"traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			b.WriteByte(',')
		}
		// ts/dur are float microseconds in the spec; emit 0.001 µs
		// resolution so nanosecond-scale stages stay visible.
		fmt.Fprintf(&b,
			`{"name":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{"trace":"%#x"}}`,
			s.Stage.String(),
			float64(s.Start-base)/1e3,
			float64(s.End-s.Start)/1e3,
			s.Trace, s.Trace)
	}
	b.WriteString(`],"displayTimeUnit":"ns"}`)
	_, err := io.WriteString(w, b.String())
	return err
}

// TraceSummary aggregates one interaction's spans for the slowest view.
type TraceSummary struct {
	Trace uint64
	// Start is the earliest recorded stage start, End the latest stage
	// end; Total their difference (pre-pipeline spans like hub_route and
	// park are included, so Total is wall time the user experienced).
	Start, End int64
	Spans      []Span
}

// Total returns the interaction's end-to-end wall time in nanoseconds.
func (t TraceSummary) Total() int64 { return t.End - t.Start }

func slowest(spans []Span, n int) []TraceSummary {
	byID := make(map[uint64]*TraceSummary)
	order := make([]*TraceSummary, 0, 16)
	for _, s := range spans {
		t := byID[s.Trace]
		if t == nil {
			t = &TraceSummary{Trace: s.Trace, Start: s.Start, End: s.End}
			byID[s.Trace] = t
			order = append(order, t)
		}
		if s.Start < t.Start {
			t.Start = s.Start
		}
		if s.End > t.End {
			t.End = s.End
		}
		t.Spans = append(t.Spans, s)
	}
	// Selection by total, descending (cold path: simple shell sort).
	for gap := len(order) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(order); i++ {
			j := i
			for j >= gap && order[j].Total() > order[j-gap].Total() {
				order[j], order[j-gap] = order[j-gap], order[j]
				j -= gap
			}
		}
	}
	if n > 0 && len(order) > n {
		order = order[:n]
	}
	out := make([]TraceSummary, len(order))
	for i, t := range order {
		out[i] = *t
	}
	return out
}

// Handler serves the trace debug surface:
//
//	GET /debug/uniint/trace            → Chrome trace_event JSON of the rings
//	GET /debug/uniint/trace?slowest=K  → per-stage text breakdown of the K
//	                                     slowest interactions on record
func Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if q := r.URL.Query().Get("slowest"); q != "" {
			n, err := strconv.Atoi(q)
			if err != nil || n <= 0 {
				http.Error(w, "slowest: want a positive integer", http.StatusBadRequest)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			writeSlowest(w, slowest(Snapshot(), n))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="trace.json"`)
		_ = WriteChromeTrace(w)
	})
}

func writeSlowest(w io.Writer, traces []TraceSummary) {
	fmt.Fprintf(w, "sampling=1/%d traces=%d\n", max(Sampling(), 1), len(traces))
	for i, t := range traces {
		fmt.Fprintf(w, "#%d trace=%#x total_ms=%.3f\n", i+1, t.Trace,
			float64(t.Total())/1e6)
		for _, s := range t.Spans {
			fmt.Fprintf(w, "   %-11s start_us=%-12.3f dur_ms=%.3f\n",
				s.Stage.String(), float64(s.Start-t.Start)/1e3,
				float64(s.Duration())/1e6)
		}
	}
}
