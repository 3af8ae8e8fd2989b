// Package stats provides the streaming statistics used by the simulator:
// numerically stable moments (Welford), extreme-value trackers for
// worst-case delay measurement, and the rate estimators the adaptive
// controller consults.
package stats

import (
	"fmt"
	"math"
)

// Welford accumulates count, mean and variance in a single pass using
// Welford's numerically stable recurrence, plus min/max. The zero value is
// an empty accumulator.
type Welford struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// Add folds a sample into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Merge folds another accumulator into w (Chan et al. parallel variant),
// so per-shard accumulators can be combined after a parallel sweep.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
	w.n = n
}

// Mean returns the sample mean, or 0 for an empty accumulator.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (n-1 denominator).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest sample, or 0 for an empty accumulator.
func (w *Welford) Min() float64 {
	if w.n == 0 {
		return 0
	}
	return w.min
}

// Max returns the largest sample, or 0 for an empty accumulator.
func (w *Welford) Max() float64 {
	if w.n == 0 {
		return 0
	}
	return w.max
}

// String summarises the accumulator for logs.
func (w *Welford) String() string {
	return fmt.Sprintf("n=%d mean=%.6g sd=%.6g min=%.6g max=%.6g",
		w.n, w.Mean(), w.StdDev(), w.Min(), w.Max())
}

// MaxTracker records the largest observation together with a numeric tag
// (typically the packet ID at which the maximum occurred). It is the core
// of worst-case-delay measurement. The tag is deliberately a plain uint64,
// not an interface: Observe sits on the per-delivery hot path, and boxing
// a tag per packet was a measurable allocation source.
type MaxTracker struct {
	n     uint64
	max   float64
	tag   uint64
	atMax bool
}

// Observe folds in a sample with its tag.
func (m *MaxTracker) Observe(x float64, tag uint64) {
	m.n++
	if !m.atMax || x > m.max {
		m.max = x
		m.tag = tag
		m.atMax = true
	}
}

// Merge folds another tracker into m, so per-shard trackers can be
// combined after a sharded run. On an exact tie the receiver's tag wins;
// merging shards in a fixed order therefore keeps the combined tag
// deterministic.
func (m *MaxTracker) Merge(o MaxTracker) {
	if o.n == 0 {
		return
	}
	if m.n == 0 {
		*m = o
		return
	}
	m.n += o.n
	if o.atMax && (!m.atMax || o.max > m.max) {
		m.max = o.max
		m.tag = o.tag
		m.atMax = true
	}
}

// Max returns the largest observation, or 0 if none were recorded.
func (m *MaxTracker) Max() float64 { return m.max }

// Tag returns the tag recorded with the maximum, or 0.
func (m *MaxTracker) Tag() uint64 { return m.tag }
