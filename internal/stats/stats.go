// Package stats provides the streaming statistics used by the simulator:
// a running mean (Welford), extreme-value trackers for worst-case delay
// measurement, and the rate estimators the adaptive controller consults.
package stats

// Welford accumulates a count and a running mean in a single pass, with
// the update step of Welford's recurrence. No result reads a spread, so
// the accumulator keeps no second moment and no extremes. The zero value
// is an empty accumulator.
type Welford struct {
	n    uint64
	mean float64
}

// Add folds a sample into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	w.mean += (x - w.mean) / float64(w.n)
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
	w.mean += (o.mean - w.mean) * float64(o.n) / float64(n)
	w.n = n
}

// Count returns the number of samples.
func (w *Welford) Count() uint64 { return w.n }

// Mean returns the sample mean, or 0 for an empty accumulator.
func (w *Welford) Mean() float64 { return w.mean }

// MaxTracker records the largest observation together with a numeric tag
// (typically the packet ID at which the maximum occurred). It is the core
// of worst-case-delay measurement. The tag is deliberately a plain uint64,
// not an interface: Observe sits on the per-delivery hot path, and boxing
// a tag per packet was a measurable allocation source.
type MaxTracker struct {
	max   float64
	tag   uint64
	atMax bool // a sample has been seen
}

// Observe folds in a sample with its tag.
func (m *MaxTracker) Observe(x float64, tag uint64) {
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
	if o.atMax && (!m.atMax || o.max > m.max) {
		*m = o
	}
}

// Max returns the largest observation, or 0 if none were recorded.
func (m *MaxTracker) Max() float64 { return m.max }

// Tag returns the tag recorded with the maximum, or 0.
func (m *MaxTracker) Tag() uint64 { return m.tag }
