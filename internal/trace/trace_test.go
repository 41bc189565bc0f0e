package trace

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func reset(t *testing.T) {
	t.Helper()
	Reset()
	SetSampling(0)
	SetSlowLog(nil, 0)
	t.Cleanup(func() {
		Reset()
		SetSampling(0)
		SetSlowLog(nil, 0)
	})
}

func TestDisabledStartReturnsZero(t *testing.T) {
	reset(t)
	if Enabled() {
		t.Fatal("Enabled() = true with sampling off")
	}
	for i := 0; i < 100; i++ {
		if id := Start(); id != 0 {
			t.Fatalf("Start() = %d with sampling disabled, want 0", id)
		}
	}
	Record(0, StageWire, 1, 2) // must be a no-op, not a panic
	if got := Snapshot(); len(got) != 0 {
		t.Fatalf("Snapshot() after zero-id Record = %d spans, want 0", len(got))
	}
}

func TestSamplingRateOneTracesEverything(t *testing.T) {
	reset(t)
	SetSampling(1)
	if !Enabled() || Sampling() != 1 {
		t.Fatalf("Enabled()=%v Sampling()=%d, want true/1", Enabled(), Sampling())
	}
	seen := map[uint64]bool{}
	for i := 0; i < 50; i++ {
		id := Start()
		if id == 0 {
			t.Fatalf("Start() = 0 at rate 1 (iteration %d)", i)
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %d", id)
		}
		seen[id] = true
	}
}

func TestSamplingRateRoundsUpToPowerOfTwo(t *testing.T) {
	reset(t)
	SetSampling(50) // rounds to 64
	if got := Sampling(); got != 64 {
		t.Fatalf("Sampling() after SetSampling(50) = %d, want 64", got)
	}
	hits := 0
	for i := 0; i < 64*8; i++ {
		if Start() != 0 {
			hits++
		}
	}
	if hits != 8 {
		t.Fatalf("sampled %d of 512 at 1/64, want exactly 8", hits)
	}
}

func TestRecordSnapshotRoundTrip(t *testing.T) {
	reset(t)
	SetSampling(1)
	id := Start()
	base := time.Now().UnixNano()
	Record(id, StageQueue, base, base+100)
	Record(id, StageDispatch, base+100, base+250)
	got := Snapshot()
	if len(got) != 2 {
		t.Fatalf("Snapshot() = %d spans, want 2", len(got))
	}
	if got[0].Stage != StageQueue || got[1].Stage != StageDispatch {
		t.Fatalf("span order = %v, %v; want queue then dispatch", got[0].Stage, got[1].Stage)
	}
	if got[0].Trace != id || got[1].Trace != id {
		t.Fatalf("trace ids = %d, %d; want %d", got[0].Trace, got[1].Trace, id)
	}
	if got[1].Duration() != 150*time.Nanosecond {
		t.Fatalf("dispatch duration = %v, want 150ns", got[1].Duration())
	}
}

func TestRingOverwriteKeepsNewest(t *testing.T) {
	reset(t)
	SetSampling(1)
	id := Start()
	total := ringShards*ringSize + 64
	for i := 0; i < total; i++ {
		Record(id, StageRender, int64(i+1), int64(i+2))
	}
	got := Snapshot()
	// id is fixed, so everything lands in one shard: exactly ringSize
	// survive and they are the newest ringSize.
	if len(got) != ringSize {
		t.Fatalf("Snapshot() = %d spans after overflow, want %d", len(got), ringSize)
	}
	for _, s := range got {
		if s.Start <= int64(total-ringSize) {
			t.Fatalf("stale span start=%d survived overwrite", s.Start)
		}
	}
}

func TestConcurrentRecordAndSnapshotAreRaceFree(t *testing.T) {
	reset(t)
	SetSampling(1)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := Start()
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
					Record(id, Stage(i%int64(numStages)), i, i+1)
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		for _, s := range Snapshot() {
			if s.Trace == 0 {
				t.Error("Snapshot() returned a zero-trace span")
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestChromeTraceExportIsValidJSON(t *testing.T) {
	reset(t)
	SetSampling(1)
	id := Start()
	base := time.Now().UnixNano()
	Record(id, StageWire, base, base+1500)
	Record(id, StageFlush, base+2000, base+9000)

	var sb strings.Builder
	if err := WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  uint64         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, sb.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("traceEvents = %d, want 2", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[0]
	if ev.Name != "wire" || ev.Ph != "X" || ev.Tid != id {
		t.Fatalf("event 0 = %+v, want wire/X/tid=%d", ev, id)
	}
	if ev.Ts != 0 || ev.Dur != 1.5 {
		t.Fatalf("event 0 ts=%v dur=%v, want rebased 0 and 1.5µs", ev.Ts, ev.Dur)
	}
	if doc.TraceEvents[1].Ts != 2.0 {
		t.Fatalf("event 1 ts=%v, want 2µs after base", doc.TraceEvents[1].Ts)
	}
}

func TestSlowestRanksByWallTime(t *testing.T) {
	reset(t)
	SetSampling(1)
	fast, slow := Start(), Start()
	Record(fast, StageQueue, 1000, 2000)
	Record(fast, StageFlush, 2000, 3000)
	Record(slow, StageQueue, 1000, 2000)
	Record(slow, StageFlush, 90000, 99000)

	got := slowest(Snapshot(), 5)
	if len(got) != 2 {
		t.Fatalf("slowest 5 = %d traces, want 2", len(got))
	}
	if got[0].Trace != slow || got[0].Total() != 98000 {
		t.Fatalf("slowest = trace %d total %d, want trace %d total 98000",
			got[0].Trace, got[0].Total(), slow)
	}
	if got := slowest(Snapshot(), 1); len(got) != 1 || got[0].Trace != slow {
		t.Fatalf("slowest 1 did not truncate to the slowest trace")
	}
}

func TestHandlerServesJSONAndSlowest(t *testing.T) {
	reset(t)
	SetSampling(1)
	id := Start()
	Record(id, StageRender, 1000, 51000)
	Record(id, StageFlush, 51000, 60000)

	h := Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/uniint/trace", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	var doc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("trace endpoint body is not JSON: %v", err)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/uniint/trace?slowest=3", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "render") || !strings.Contains(body, "total_ms=") {
		t.Fatalf("slowest view missing stage breakdown:\n%s", body)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/uniint/trace?slowest=bogus", nil))
	if rec.Code != 400 {
		t.Fatalf("slowest=bogus status = %d, want 400", rec.Code)
	}
}

func TestSlowLogEmitsOverBudgetBreakdown(t *testing.T) {
	reset(t)
	SetSampling(1)
	var buf strings.Builder
	var mu sync.Mutex
	SetSlowLog(lockedWriter{&mu, &buf}, 5*time.Millisecond)

	fast := Start()
	base := time.Now().UnixNano()
	Record(fast, StageQueue, base, base+int64(time.Millisecond))
	Record(fast, StageFlush, base+int64(time.Millisecond), base+2*int64(time.Millisecond))

	slow := Start()
	Record(slow, StageQueue, base, base+int64(8*time.Millisecond))
	Record(slow, StageFlush, base+int64(8*time.Millisecond), base+int64(9*time.Millisecond))

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if strings.Count(out, "slow_interaction") != 1 {
		t.Fatalf("want exactly one slow_interaction line, got:\n%s", out)
	}
	for _, want := range []string{"total_ms=9.000", "queue_ms=8.000", "flush_ms=1.000"} {
		if !strings.Contains(out, want) {
			t.Errorf("slow log missing %q:\n%s", want, out)
		}
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *strings.Builder
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func TestRouteSpanRoundTrip(t *testing.T) {
	if _, _, ok := RouteSpan(nil); ok {
		t.Fatal("RouteSpan(nil) = ok")
	}
	wrapped := WithRoute(nil, 7, 11)
	s, e, ok := RouteSpan(wrapped)
	if !ok || s != 7 || e != 11 {
		t.Fatalf("RouteSpan = %d,%d,%v; want 7,11,true", s, e, ok)
	}
}

func TestStageNamesAreSnakeCase(t *testing.T) {
	names := StageNames()
	if len(names) != int(numStages) {
		t.Fatalf("StageNames() = %d names, want %d", len(names), numStages)
	}
	for _, n := range names {
		for _, r := range n {
			if !(r == '_' || (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9')) {
				t.Errorf("stage name %q is not snake_case", n)
			}
		}
	}
	if Stage(200).String() != "unknown" {
		t.Error("out-of-range Stage.String() should be \"unknown\"")
	}
}
