package uniint

// Render-path benchmarks gating the damage-clipped incremental renderer
// (see Makefile GATE_BENCH / BENCH_BASELINE.json):
//
//	BenchmarkRenderFull    full-tree repaint at 640×480 (the old cost model)
//	BenchmarkRenderWidget  one-toggle update — O(widget) pixels, 0 allocs/op
//	BenchmarkRenderText    one-label text churn through the span-blit path
//	BenchmarkE2bRender     widget flip → damage → clipped repaint → adaptive
//	                       encode, across M hub-scale homes
//
// RenderWidget vs RenderFull is the incremental win: the bench-gate pins
// both, so a regression that silently falls back to full repaints fails CI.

import (
	"fmt"
	"testing"

	"uniint/internal/gfx"
	"uniint/internal/rfb"
	"uniint/internal/toolkit"
	"uniint/internal/workload"
)

// benchRenderScene builds a 24-widget control panel on a 640×480 display
// with all damage drained.
func benchRenderScene(b *testing.B) (*toolkit.Display, *workload.UIScene) {
	b.Helper()
	d := toolkit.NewDisplay(640, 480)
	scene := workload.NewUIScene(24)
	d.SetRoot(scene.Root)
	d.Render()
	return d, scene
}

// BenchmarkRenderFull measures a full-tree repaint: every widget repaints,
// the whole framebuffer is rewritten. This is what ANY update cost before
// the incremental renderer.
func BenchmarkRenderFull(b *testing.B) {
	d, _ := benchRenderScene(b)
	var buf []gfx.Rect
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.InvalidateAll()
		buf, _ = d.RenderTraceInto(buf)
		if len(buf) == 0 {
			b.Fatal("full invalidation produced no damage")
		}
	}
}

// BenchmarkRenderWidget measures the incremental contract: one toggle
// flips, only pixels under the toggle's damage rect repaint, and the
// steady-state render path performs zero allocations.
func BenchmarkRenderWidget(b *testing.B) {
	d, scene := benchRenderScene(b)
	tg := scene.Toggles[0]
	on := false
	flip := func() {
		on = !on
		tg.SetOn(on)
	}
	var buf []gfx.Rect
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Update(flip)
		buf, _ = d.RenderTraceInto(buf)
		if len(buf) == 0 {
			b.Fatal("toggle flip produced no damage")
		}
	}
}

// BenchmarkRenderText measures label text churn — the glyph span-blit path
// under a damage clip.
func BenchmarkRenderText(b *testing.B) {
	d, scene := benchRenderScene(b)
	lbl := scene.Labels[0]
	texts := [2]string{"ticker 0001 running", "ticker 0002 stalled"}
	i := 0
	step := func() {
		lbl.SetText(texts[i&1])
		i++
	}
	var buf []gfx.Rect
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		d.Update(step)
		buf, _ = d.RenderTraceInto(buf)
		if len(buf) == 0 {
			b.Fatal("text change produced no damage")
		}
	}
}

// BenchmarkE2bRender is the end-to-end output hot path at hub scale:
// UI-churn widget flips spread over M homes, each op being one flip →
// damage → clipped repaint → adaptive encode of the refreshed rects.
// Echo steps (unchanged state) are excluded from the stream so every op
// does one real update.
func BenchmarkE2bRender(b *testing.B) {
	pf := gfx.PF32()
	for _, homes := range []int{1, 16} {
		b.Run(fmt.Sprintf("%d-homes", homes), func(b *testing.B) {
			displays := make([]*toolkit.Display, homes)
			scenes := make([]*workload.UIScene, homes)
			for i := range displays {
				displays[i] = toolkit.NewDisplay(320, 240)
				scenes[i] = workload.NewUIScene(16)
				displays[i].SetRoot(scenes[i].Root)
				displays[i].Render()
			}
			churn := workload.NewUIChurn(homes, 16, 7)
			var (
				buf   []gfx.Rect
				body  []byte
				bytes int
				px    int
			)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := churn.Next()
				for st.Echo {
					st = churn.Next()
				}
				d := displays[st.Home]
				d.Update(func() { churn.Apply(scenes[st.Home], st) })
				buf, _ = d.RenderTraceInto(buf)
				body = body[:0]
				d.WithFramebuffer(func(fb *gfx.Framebuffer) {
					for _, r := range buf {
						enc := rfb.AdaptiveEncoding(fb, r)
						out, err := rfb.EncodeRectInto(body, enc, fb, r, pf)
						if err != nil {
							b.Fatal(err)
						}
						body = out
						px += r.Area()
					}
				})
				bytes += len(body)
			}
			b.ReportMetric(float64(bytes)/float64(b.N), "bytes/op")
			b.ReportMetric(float64(px)/float64(b.N), "px/op")
		})
	}
}
