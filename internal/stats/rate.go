package stats

import "repro/internal/des"

// WindowRate measures arrival rate over a sliding window: the total bits
// that arrived in the last Window nanoseconds divided by the window length.
// It is exactly the "average input rate over the recent past" the paper's
// adaptive algorithm consults.
type WindowRate struct {
	window des.Duration
	// ring buffer of (time, bits) arrivals inside the window
	times []des.Time
	bits  []float64
	head  int
	n     int
	sum   float64
}

// NewWindowRate returns an estimator with the given window. It panics if
// window <= 0.
func NewWindowRate(window des.Duration) *WindowRate {
	if window <= 0 {
		panic("stats: rate window must be positive")
	}
	const initial = 64
	return &WindowRate{
		window: window,
		times:  make([]des.Time, initial),
		bits:   make([]float64, initial),
	}
}

// Observe records an arrival of `bits` at time t. Observations must be
// delivered in non-decreasing time order (the DES guarantees this).
func (w *WindowRate) Observe(t des.Time, bits float64) {
	w.expire(t)
	if w.n == len(w.times) {
		w.grow()
	}
	idx := (w.head + w.n) % len(w.times)
	w.times[idx] = t
	w.bits[idx] = bits
	w.n++
	w.sum += bits
}

func (w *WindowRate) grow() {
	nt := make([]des.Time, 2*len(w.times))
	nb := make([]float64, 2*len(w.bits))
	for i := 0; i < w.n; i++ {
		idx := (w.head + i) % len(w.times)
		nt[i] = w.times[idx]
		nb[i] = w.bits[idx]
	}
	w.times, w.bits, w.head = nt, nb, 0
}

func (w *WindowRate) expire(t des.Time) {
	cutoff := t - w.window
	for w.n > 0 && w.times[w.head] <= cutoff {
		w.sum -= w.bits[w.head]
		w.head = (w.head + 1) % len(w.times)
		w.n--
	}
}

// Rate returns bits/second over the window ending at t.
func (w *WindowRate) Rate(t des.Time) float64 {
	w.expire(t)
	return w.sum / w.window.Seconds()
}
