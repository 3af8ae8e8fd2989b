package stats

import (
	"math"
	"testing"

	"repro/internal/des"
)

func TestWindowRateSteadyStream(t *testing.T) {
	w := NewWindowRate(des.Second)
	// 1000 bits every 10ms = 100,000 bits/s
	for i := 1; i <= 200; i++ {
		w.Observe(des.Time(i)*10*des.Millisecond, 1000)
	}
	got := w.Rate(200 * 10 * des.Millisecond)
	if math.Abs(got-100000) > 2000 {
		t.Fatalf("rate = %v, want ~100000", got)
	}
}

func TestWindowRateExpiry(t *testing.T) {
	w := NewWindowRate(des.Second)
	w.Observe(0, 1e6)
	if r := w.Rate(des.Millisecond); r <= 0 {
		t.Fatalf("rate right after burst = %v", r)
	}
	if r := w.Rate(2 * des.Second); r != 0 {
		t.Fatalf("rate after window expiry = %v, want 0", r)
	}
}

func TestWindowRateEmptyIsZero(t *testing.T) {
	w := NewWindowRate(des.Second)
	if w.Rate(des.Second) != 0 {
		t.Fatal("empty window should report 0")
	}
}

func TestWindowRateGrowth(t *testing.T) {
	// More observations in one window than the initial ring capacity.
	w := NewWindowRate(des.Second)
	for i := 0; i < 1000; i++ {
		w.Observe(des.Time(i)*des.Microsecond, 1)
	}
	got := w.Rate(1000 * des.Microsecond)
	if math.Abs(got-1000) > 5 {
		t.Fatalf("rate = %v, want ~1000 bits/s (1000 bits in 1s window)", got)
	}
}

func TestWindowRateStepChange(t *testing.T) {
	w := NewWindowRate(100 * des.Millisecond)
	// Phase 1: 10 bits/ms for 200ms, phase 2: 50 bits/ms for 200ms.
	var now des.Time
	for i := 0; i < 200; i++ {
		now = des.Time(i) * des.Millisecond
		w.Observe(now, 10)
	}
	for i := 200; i < 400; i++ {
		now = des.Time(i) * des.Millisecond
		w.Observe(now, 50)
	}
	got := w.Rate(now)
	want := 50.0 * 1000 // 50 bits per ms = 50000 bits/s
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("rate after step = %v, want ~%v", got, want)
	}
}

func TestWindowRatePanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWindowRate(0)
}

func BenchmarkWindowRateObserve(b *testing.B) {
	w := NewWindowRate(des.Second)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Observe(des.Time(i)*des.Microsecond, 1000)
	}
}
