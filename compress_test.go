package crossborder_test

import (
	"testing"

	"crossborder"
	"crossborder/internal/classify"
)

// TestCompressedStoresMatchGolden is the codec's study-level contract:
// at the golden configuration (seed 1 / scale 0.05) the compressed
// spill store must render all 20 experiment artifacts to the committed
// golden digests, and its spill file must be at least 3x smaller than
// the raw fixed-width column layout. The compressed in-memory store is
// the live collector's, covered by the live and cluster replay parity
// tests.
func TestCompressedStoresMatchGolden(t *testing.T) {
	st := goldenStudy(t, crossborder.WithRowStore(crossborder.DiskRowStore("")))
	checkGoldenDigests(t, "spill-compressed", st.RenderAll())
	sp, ok := st.Scenario().Dataset.Store.(*classify.SpillStore)
	if !ok {
		t.Fatalf("disk study is backed by %T, want *classify.SpillStore", st.Scenario().Dataset.Store)
	}
	raw, size := sp.RawSize(), sp.Size()
	t.Logf("spill file: %d bytes for %d raw (%.2fx, %.2f B/row over %d rows)",
		size, raw, float64(raw)/float64(size), float64(size)/float64(sp.Len()), sp.Len())
	if size*3 > raw {
		t.Errorf("spill compression ratio %.2fx is below the 3x floor (%d of %d raw bytes)",
			float64(raw)/float64(size), size, raw)
	}
	if err := st.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}
