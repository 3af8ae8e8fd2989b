package stats

import "testing"

func TestWindowMaxBucketsAndSeries(t *testing.T) {
	w := NewWindowMax(1.0)
	w.Observe(0.2, 3)
	w.Observe(0.9, 1)
	w.Observe(2.5, 7)
	w.Observe(2.6, 4)
	got := w.Series()
	want := []float64{3, 0, 7}
	if len(got) != len(want) {
		t.Fatalf("series length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
	if len(w.buckets) != 3 || w.width != 1.0 {
		t.Fatalf("windows=%d width=%v", len(w.buckets), w.width)
	}
}

func TestWindowMaxNegativeTimeAndZeroSamples(t *testing.T) {
	w := NewWindowMax(0.5)
	w.Observe(-1, 2)
	w.Observe(0.1, 0) // a genuine 0 sample must register
	if s := w.Series(); s[0] != 2 {
		t.Fatalf("bucket 0 = %v, want 2", s[0])
	}
	w2 := NewWindowMax(0.5)
	w2.Observe(0.1, 0)
	if s := w2.Series(); len(s) != 1 || s[0] != 0 {
		t.Fatalf("zero-sample bucket = %v", s)
	}
}

func TestWindowMaxPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for width 0")
		}
	}()
	NewWindowMax(0)
}

func TestWindowMaxMerge(t *testing.T) {
	a := NewWindowMax(1)
	b := NewWindowMax(1)
	a.Observe(0.5, 1.0)
	a.Observe(1.5, 4.0)
	b.Observe(1.2, 2.0)
	b.Observe(3.7, 9.0) // longer series
	a.Merge(b)
	want := []float64{1, 4, 0, 9}
	got := a.Series()
	if len(got) != len(want) {
		t.Fatalf("series %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
	a.Merge(nil) // no-op
	if len(a.Series()) != 4 {
		t.Fatal("nil merge changed the series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("width mismatch did not panic")
		}
	}()
	a.Merge(NewWindowMax(2))
}
