package traffic

import "repro/internal/des"

// Envelope is a (σ, ρ) arrival-curve constraint: in any interval [t1, t2]
// the stream delivers at most σ + ρ·(t2−t1) bits (the paper's R ~ (σ, ρ)).
type Envelope struct {
	Sigma float64 // burst allowance, bits
	Rho   float64 // long-term rate bound, bits/second
}

// Meter measures the tightest σ for a fixed ρ over an observed arrival
// stream, streaming in O(1) space:
//
//	σ̂ = max_{t1<t2} [A(t2)−A(t1) − ρ(t2−t1)]
//	   = max_t [ (A(t)−ρt) − min_{s<=t} (A(s)−ρs) ]
//
// where A is cumulative arrivals. Feeding the Meter the flow's long-run
// average rate yields the σ the regulators should be configured with.
type Meter struct {
	rho     float64
	cum     float64
	minSeen float64
	sigma   float64
	primed  bool
}

// NewMeter returns a meter for rate bound rho (bits/second).
func NewMeter(rho float64) *Meter {
	if rho < 0 {
		panic("traffic: meter rho must be non-negative")
	}
	return &Meter{rho: rho}
}

// Observe folds in an arrival of `bits` at time t. Arrivals must be in
// non-decreasing time order.
func (m *Meter) Observe(t des.Time, bits float64) {
	// Evaluate the deviation just before this arrival so the minimum can
	// be taken at arbitrary points between arrivals.
	dev := m.cum - m.rho*t.Seconds()
	if !m.primed || dev < m.minSeen {
		m.minSeen = dev
		m.primed = true
	}
	m.cum += bits
	if after := m.cum - m.rho*t.Seconds() - m.minSeen; after > m.sigma {
		m.sigma = after
	}
}

// Sigma returns the tightest burst estimate so far.
func (m *Meter) Sigma() float64 { return m.sigma }

// MeasureEnvelope runs src in isolation for the given duration and returns
// the tightest (σ, ρ) envelope at ρ = margin × AvgRate. This is how the
// experiment harness derives regulator parameters for the VBR media models
// — the paper assumes flows arrive already characterised by (σᵢ, ρᵢ).
func MeasureEnvelope(src Source, margin float64, dur des.Duration) Envelope {
	if margin <= 0 {
		panic("traffic: envelope margin must be positive")
	}
	eng := des.New()
	rho := margin * src.AvgRate()
	meter := NewMeter(rho)
	src.Start(eng, dur, func(p Packet) { meter.Observe(eng.Now(), p.Size) })
	eng.RunUntil(dur)
	return Envelope{Sigma: meter.Sigma(), Rho: rho}
}
