package uniint

// Wire-tier resume test (PR 7 satellite): a session that parks and
// resumes starts over with a Reset wire model — fresh tile window,
// distrusted shadow — while the dictionary-zlib encoding keeps working
// immediately, because the dictionary is a per-pixel-format constant
// derived from the toolkit on both ends, never session state. A
// full-screen repaint after the resume must take the dictionary path and
// decode byte-identically on the reconnected client.

import (
	"testing"

	"uniint/internal/metrics"
)

func TestDictionaryEncodingAcrossResume(t *testing.T) {
	counters := metrics.Default()

	st := newResumeStack(t)
	st.awaitTraffic()
	st.settle()
	st.press(1)
	st.settle()

	st.awayUntilParked(func() {
		st.display.Update(func() { st.lbl.SetText("while away") })
	})
	waitCond(t, "reconnect", func() bool { return st.proxy.Reconnects() == 1 })
	if got := st.proxy.Resumes(); got != 1 {
		t.Fatalf("Resumes() = %d, want 1", got)
	}
	st.awaitTraffic()
	st.settle()

	// Post-resume full-screen repaint: 320×240 is far above the
	// dictionary threshold and too tall for a tile, so it exercises
	// EncZlibDict against the adopted-but-Reset wire state.
	dict0 := counters.Counter("rfb_dict_picks_total").Value()
	before := st.proxy.Client().BytesReceived()
	st.display.InvalidateAll()
	waitCond(t, "repaint traffic", func() bool {
		return st.proxy.Client().BytesReceived() > before
	})
	st.settle()

	// Convergence, not timing: a quiet spell can come before the repaint
	// has started (under -race the render alone outlasts it).
	waitCond(t, "the post-resume dictionary repaint to match the display", st.converged)
	if d := counters.Counter("rfb_dict_picks_total").Value() - dict0; d < 1 {
		t.Errorf("rfb_dict_picks_total delta = %d after a full-screen repaint, want >= 1 (dictionary path never taken)", d)
	}

	// The session keeps working after the repaint (the revalidated wire
	// model serves ordinary damage again).
	st.press(2)
	st.settle()
	waitCond(t, "the post-repaint interaction to match the display", st.converged)
}
