package uniserver

import "testing"

func counter(name string) int64 { registry{}.Counter(name); return 0 }

// TestShadowlessImportResumesDistrusted has the shape uniserver's test had
// before it was repointed: it sums two counters no non-test file registers
// any more, so the registry hands it zeros and it passes while testing
// nothing. The one registered counter it reads resolves.
func TestShadowlessImportResumesDistrusted(t *testing.T) {
	copies := func() int64 { return counter("deleted_self_copies_total") + counter("deleted_displaced_copies_total") }
	if copies() != 0 {
		t.Fatal("CopyRect hits")
	}
	_ = counter("rfb_copyrect_unchanged_total")
}
