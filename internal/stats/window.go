package stats

import "math"

// WindowMax accumulates a max-per-window time series: samples fold into
// fixed-width time buckets, and the series of per-bucket maxima shows how
// an extreme metric (worst-case delay) evolves over a run — the transient
// view needed around membership-churn events, where a single end-of-run
// maximum would hide when the excursion happened.
type WindowMax struct {
	width   float64
	buckets []float64
	filled  []bool
}

// NewWindowMax returns an accumulator with the given bucket width in the
// sample's time unit (seconds throughout this repository). It panics on a
// non-positive width.
func NewWindowMax(width float64) *WindowMax {
	if width <= 0 {
		panic("stats: window width must be positive")
	}
	return &WindowMax{width: width}
}

// Observe folds sample x at time t into its bucket. Negative times fold
// into bucket 0.
func (w *WindowMax) Observe(t, x float64) {
	i := 0
	if t > 0 {
		i = int(t / w.width)
	}
	for len(w.buckets) <= i {
		w.buckets = append(w.buckets, 0)
		w.filled = append(w.filled, false)
	}
	if !w.filled[i] || x > w.buckets[i] {
		w.buckets[i] = x
		w.filled[i] = true
	}
}

// Merge folds another accumulator's buckets into w (per-bucket max), so
// per-shard series can be combined after a sharded run. The widths must
// match; merging is commutative, so the result is independent of shard
// order.
func (w *WindowMax) Merge(o *WindowMax) {
	if o == nil {
		return
	}
	if w.width != o.width {
		panic("stats: merging WindowMax accumulators with different widths")
	}
	for len(w.buckets) < len(o.buckets) {
		w.buckets = append(w.buckets, 0)
		w.filled = append(w.filled, false)
	}
	for i, filled := range o.filled {
		if filled && (!w.filled[i] || o.buckets[i] > w.buckets[i]) {
			w.buckets[i] = o.buckets[i]
			w.filled[i] = true
		}
	}
}

// Series returns a copy of the per-bucket maxima, index i covering times
// [i·width, (i+1)·width). Buckets with no samples hold 0.
func (w *WindowMax) Series() []float64 {
	return append([]float64(nil), w.buckets...)
}

// MaxIn returns the largest value of a WindowMax series over the time
// range [from, to), given the series' bucket width — the transient spike
// extractor: the harness reads the worst windowed delay in the seconds
// following a fault event from the run's full series. Buckets partially
// overlapping the range count. Returns 0 for an empty intersection or a
// non-positive width.
func MaxIn(series []float64, width, from, to float64) float64 {
	if width <= 0 || to <= from || len(series) == 0 {
		return 0
	}
	lo := 0
	if from > 0 {
		lo = int(from / width)
	}
	hi := len(series)
	if b := int(math.Ceil(to / width)); b < hi {
		hi = b
	}
	max := 0.0
	for i := lo; i < hi && i < len(series); i++ {
		if series[i] > max {
			max = series[i]
		}
	}
	return max
}
