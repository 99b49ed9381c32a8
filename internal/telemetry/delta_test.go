package telemetry

import "testing"

// TestHistogramDelta pins the one windowed-delta rule shared by the SLO
// watchdog's latency rule and the history store's window digests.
func TestHistogramDelta(t *testing.T) {
	bounds := []float64{1, 2, 4}
	snap := func(counts ...uint64) HistogramSnapshot {
		h := quantHist(bounds, counts)
		h.Sum = float64(h.Count) * 1.5
		return h
	}
	a := snap(1, 0, 0, 0)
	b := snap(1, 0, 2, 0)
	for _, tc := range []struct {
		name       string
		prev, cur  HistogramSnapshot
		ok         bool
		wantCounts []uint64
	}{
		{"window", a, b, true, []uint64{0, 0, 2, 0}},
		{"idle window", b, b, true, []uint64{0, 0, 0, 0}},
		{"empty prev passes cur through", HistogramSnapshot{}, b, true, []uint64{1, 0, 2, 0}},
		{"shape mismatch", a, quantHist([]float64{1, 2}, []uint64{3, 0, 0}), false, nil},
		{"total count regression", b, a, false, nil},
		{"single bucket regression", snap(2, 0, 0, 0), snap(0, 0, 3, 0), false, nil},
	} {
		var d HistogramSnapshot
		if ok := d.Delta(tc.prev, tc.cur); ok != tc.ok {
			t.Fatalf("%s: ok = %v, want %v", tc.name, ok, tc.ok)
		}
		if !tc.ok {
			continue
		}
		var count uint64
		for i, want := range tc.wantCounts {
			if d.Counts[i] != want {
				t.Fatalf("%s: counts %v, want %v", tc.name, d.Counts, tc.wantCounts)
			}
			count += want
		}
		if d.Count != count || d.Sum != tc.cur.Sum-tc.prev.Sum || len(d.Bounds) != len(bounds) {
			t.Fatalf("%s: count=%d sum=%g bounds=%v", tc.name, d.Count, d.Sum, d.Bounds)
		}
	}

	// The receiver's slices are reused across calls: warmed, it never
	// allocates, and a failed call leaves it reusable.
	var d HistogramSnapshot
	d.Delta(a, b)
	if allocs := testing.AllocsPerRun(100, func() {
		d.Delta(b, a)
		if !d.Delta(a, b) || d.Count != 2 {
			t.Fatal("reused receiver lost the window")
		}
	}); allocs != 0 {
		t.Fatalf("Delta allocates %.1f per call on a warmed receiver", allocs)
	}
}
