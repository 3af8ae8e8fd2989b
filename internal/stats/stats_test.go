package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.Count() != 8 {
		t.Fatalf("count = %d", w.Count())
	}
	if !almostEqual(w.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %v", w.Mean())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Count() != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
}

func TestWelfordSingle(t *testing.T) {
	var w Welford
	w.Add(3.5)
	if w.Count() != 1 || w.Mean() != 3.5 {
		t.Fatalf("single sample: count %d, mean %v", w.Count(), w.Mean())
	}
}

// Property: merging split halves equals accumulating the whole stream.
func TestQuickWelfordMerge(t *testing.T) {
	f := func(raw []int16, split uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v) / 16.0
		}
		k := int(split) % len(xs)
		var whole, a, b Welford
		for _, x := range xs {
			whole.Add(x)
		}
		for _, x := range xs[:k] {
			a.Add(x)
		}
		for _, x := range xs[k:] {
			b.Add(x)
		}
		a.Merge(b)
		return a.Count() == whole.Count() && almostEqual(a.Mean(), whole.Mean(), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	a.Add(1)
	a.Merge(b) // merge empty into non-empty
	if a.Count() != 1 {
		t.Fatal("merge with empty changed count")
	}
	var c Welford
	c.Merge(a) // merge non-empty into empty
	if c.Count() != 1 || c.Mean() != 1 {
		t.Fatal("merge into empty lost data")
	}
}

func TestMaxTracker(t *testing.T) {
	var m MaxTracker
	m.Observe(1.0, 10)
	m.Observe(5.0, 20)
	m.Observe(3.0, 30)
	if m.Max() != 5.0 || m.Tag() != 20 {
		t.Fatalf("max=%v tag=%v", m.Max(), m.Tag())
	}
}

func TestMaxTrackerNegative(t *testing.T) {
	var m MaxTracker
	m.Observe(-5, 1)
	m.Observe(-2, 2)
	m.Observe(-9, 3)
	if m.Max() != -2 || m.Tag() != 2 {
		t.Fatalf("max=%v tag=%v", m.Max(), m.Tag())
	}
}

func TestMaxTrackerMerge(t *testing.T) {
	var a, b, empty MaxTracker
	a.Observe(1.5, 10)
	a.Observe(0.5, 11)
	b.Observe(2.5, 20)
	b.Observe(2.0, 21)
	a.Merge(b)
	if a.Max() != 2.5 || a.Tag() != 20 {
		t.Fatalf("merged = max %v tag %d", a.Max(), a.Tag())
	}
	// Merging an empty tracker is a no-op; merging into an empty adopts.
	before := a
	a.Merge(empty)
	if a != before {
		t.Fatalf("empty merge changed the tracker")
	}
	var c MaxTracker
	c.Merge(a)
	if c != a {
		t.Fatalf("merge into empty did not adopt")
	}
	// Exact tie: the receiver's tag wins, so shard-order merges are stable.
	var x, y MaxTracker
	x.Observe(3.0, 1)
	y.Observe(3.0, 2)
	x.Merge(y)
	if x.Tag() != 1 {
		t.Fatalf("tie tag = %d, want the receiver's 1", x.Tag())
	}
}
