package stats

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/snap"
)

// Checkpoint support: the accumulators the sessions keep as mutable
// runtime state serialize their private fields into an open snap record
// and restore them in place. Encode and decode orders must match exactly
// (the codec has no field tags); each method documents its layout by
// being the layout.

// Snapshot appends the accumulator's fields to the open record.
func (w *Welford) Snapshot(sw *snap.Writer) {
	sw.U64(w.n)
	sw.F64(w.mean)
}

// Restore overwrites the accumulator from the open record.
func (w *Welford) Restore(sr *snap.Reader) {
	w.n = sr.U64()
	w.mean = sr.F64()
}

// Snapshot appends the tracker's fields to the open record.
func (m *MaxTracker) Snapshot(sw *snap.Writer) {
	sw.F64(m.max)
	sw.U64(m.tag)
	sw.Bool(m.atMax)
}

// Restore overwrites the tracker from the open record.
func (m *MaxTracker) Restore(sr *snap.Reader) {
	m.max = sr.F64()
	m.tag = sr.U64()
	m.atMax = sr.Bool()
}

// Snapshot appends the estimator's live window entries to the open
// record, oldest first. The running sum is serialized verbatim, not
// recomputed: it accumulated through float adds and subtracts whose
// low-order bits a fresh summation would not reproduce, and the adaptive
// controller's mode switches compare against it bit for bit.
func (w *WindowRate) Snapshot(sw *snap.Writer) {
	sw.Len(w.n)
	for i := 0; i < w.n; i++ {
		idx := (w.head + i) % len(w.times)
		sw.I64(int64(w.times[idx]))
		sw.F64(w.bits[idx])
	}
	sw.F64(w.sum)
}

// Restore overwrites the estimator from the open record. The ring's
// physical layout (head position, capacity growth history) is not part of
// the contract — only the logical entries and the running sum are.
func (w *WindowRate) Restore(sr *snap.Reader) {
	n := sr.Count(8 + 8)
	size := len(w.times)
	for size < n {
		size *= 2
	}
	w.times = make([]des.Time, size)
	w.bits = make([]float64, size)
	w.head, w.n = 0, n
	for i := 0; i < n; i++ {
		w.times[i] = des.Time(sr.I64())
		w.bits[i] = sr.F64()
	}
	w.sum = sr.F64()
}

// Snapshot appends the series' width and buckets to the open record.
func (w *WindowMax) Snapshot(sw *snap.Writer) {
	sw.F64(w.width)
	sw.Len(len(w.buckets))
	for i := range w.buckets {
		sw.F64(w.buckets[i])
		sw.Bool(w.filled[i])
	}
}

// Restore overwrites the series from the open record. The serialized
// width must match the accumulator's configured width: the restored run
// recompiles its immutable configuration first, so a mismatch means the
// snapshot came from a different configuration, and fails the reader.
func (w *WindowMax) Restore(sr *snap.Reader) {
	if width := sr.F64(); sr.Err() == nil && width != w.width {
		sr.Fail(fmt.Errorf("stats: snapshot window width %v, accumulator has %v", width, w.width))
		return
	}
	n := sr.Len()
	w.buckets = w.buckets[:0]
	w.filled = w.filled[:0]
	for i := 0; i < n; i++ {
		w.buckets = append(w.buckets, sr.F64())
		w.filled = append(w.filled, sr.Bool())
	}
}
