package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	c1 := r.Split()
	c2 := r.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children produced identical first values")
	}
}

func TestFloat64Range01(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	seen := make(map[int]int)
	for i := 0; i < 30000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) returned %d", v)
		}
		seen[v]++
	}
	for v := 0; v < 7; v++ {
		if seen[v] == 0 {
			t.Fatalf("Intn(7) never produced %d", v)
		}
		// Each bucket should hold roughly 30000/7 ≈ 4285 samples.
		if seen[v] < 3800 || seen[v] > 4800 {
			t.Fatalf("Intn(7) bucket %d has suspicious count %d", v, seen[v])
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestInt63nPowerOfTwo(t *testing.T) {
	r := New(9)
	for i := 0; i < 1000; i++ {
		v := r.Int63n(64)
		if v < 0 || v >= 64 {
			t.Fatalf("Int63n(64) out of range: %d", v)
		}
	}
}

func TestIntRange(t *testing.T) {
	r := New(13)
	for i := 0; i < 10000; i++ {
		v := r.IntRange(3, 8)
		if v < 3 || v > 8 {
			t.Fatalf("IntRange(3,8) returned %d", v)
		}
	}
	if got := r.IntRange(5, 5); got != 5 {
		t.Fatalf("IntRange(5,5) = %d", got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid permutation at value %d", v)
		}
		seen[v] = true
	}
}

func TestExpMean(t *testing.T) {
	r := New(19)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(2.5)
	}
	mean := sum / n
	if math.Abs(mean-2.5) > 0.05 {
		t.Fatalf("Exp(2.5) sample mean %v", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(23)
	var sum, sq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := 10 + 2*r.NormFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("Normal mean %v", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Fatalf("Normal variance %v", variance)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(29)
	for i := 0; i < 10000; i++ {
		if v := r.LogNormal(0, 0.5); v <= 0 {
			t.Fatalf("LogNormal produced non-positive %v", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(43)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate %v", frac)
	}
}

// Property: Int63n output is always within bounds for arbitrary positive n.
func TestQuickInt63nInRange(t *testing.T) {
	r := New(101)
	f := func(n int64) bool {
		if n <= 0 {
			n = -n + 1
		}
		v := r.Int63n(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// int63nRef is Int63n as it was before its fast accept: the rejection
// threshold computed for every draw.
func int63nRef(r *Rand, n int64) int64 {
	if n&(n-1) == 0 {
		return r.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// TestInt63nMatchesReference: skipping the threshold for draws no
// threshold can reject leaves every stream as it was — for every n from 2
// to 10⁵, around each power of two, and at 1<<62 + 1, where the threshold
// rejects half the draws.
func TestInt63nMatchesReference(t *testing.T) {
	check := func(n int64, draws int) {
		a, b := New(uint64(n)), New(uint64(n))
		for i := 0; i < draws; i++ {
			if got, want := a.Int63n(n), int63nRef(b, n); got != want {
				t.Fatalf("Int63n(%d) draw %d = %d, reference %d", n, i, got, want)
			}
		}
	}
	for n := int64(2); n <= 100_000; n++ {
		check(n, 4)
	}
	for p := 2; p < 63; p++ {
		for d := int64(-2); d <= 2; d++ {
			check(int64(1)<<p+d, 64)
		}
	}
	check(math.MaxInt64, 64)
	check(1<<62+1, 4096)
}

// TestShuffleInt32sMatchesShuffleInts: the int32 shuffle makes the same
// permutation from the same stream.
func TestShuffleInt32sMatchesShuffleInts(t *testing.T) {
	a, b := make([]int, 1000), make([]int32, 1000)
	for i := range a {
		a[i], b[i] = i, int32(i)
	}
	New(5).ShuffleInts(a)
	New(5).ShuffleInt32s(b)
	for i := range a {
		if int32(a[i]) != b[i] {
			t.Fatalf("position %d: %d against %d", i, b[i], a[i])
		}
	}
}

// Property: Shuffle preserves the multiset of elements.
func TestQuickShufflePreserves(t *testing.T) {
	r := New(103)
	f := func(raw []uint8) bool {
		s := make([]int, len(raw))
		sum := 0
		for i, v := range raw {
			s[i] = int(v)
			sum += int(v)
		}
		r.ShuffleInts(s)
		got := 0
		for _, v := range s {
			got += v
		}
		return got == sum && len(s) == len(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.Float64()
	}
	_ = sink
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.NormFloat64()
	}
	_ = sink
}
