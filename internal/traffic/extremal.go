package traffic

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/snap"
)

// Extremal is a deterministic, envelope-extremal periodic flow: once per
// period it emits its full burst allowance σ instantaneously, and in
// between it runs as CBR at (slightly below) its average rate. This is the
// admissible trajectory Cruz's (σ, ρ) delay bounds are tight against: a
// burst of Σσ arriving at a multiplexer that keeps receiving the sustained
// base rate drains at C−Σρ̄, so the realised busy period approaches the
// paper's Σσᵢ/(C(1−ρ̄K)) — which stochastic VBR models essentially never
// realise (a worst-case-delay study driven by typical-case traffic would
// be vacuous; the VBR models remain the workload of the examples and the
// realism ablation — see DESIGN.md).
//
// The flow conforms to (σ + one packet, ρ) for any ρ ≥ its average rate.
type Extremal struct {
	Flow       int
	Rate       float64 // bits/second long-run average
	Rho        float64 // declared envelope rate, > Rate
	Sigma      float64 // burst, bits
	PacketSize float64
	Period     des.Duration

	// Runtime state. nextID and start are the flow's only mutable words
	// (Snapshot captures them); the rest is bound by Resume.
	nextID uint64
	start  des.Time
	eng    *des.Engine
	until  des.Time
	out    Sink
	gap    des.Duration // between base-rate packets
}

// NewExtremal builds an extremal flow with the given average rate and
// envelope rate ρ > rate. burstSec sets σ = burstSec·ρ. The default
// period is 12 s.
func NewExtremal(flow int, rate, rho, burstSec float64) *Extremal {
	return new(Extremal).init(flow, rate, rho, burstSec)
}

// init is NewExtremal into zeroed storage the caller made (see
// ExtremalMixN).
func (e *Extremal) init(flow int, rate, rho, burstSec float64) *Extremal {
	if rate <= 0 || rho <= rate {
		panic("traffic: extremal flow needs 0 < rate < rho")
	}
	if burstSec <= 0 {
		panic("traffic: extremal burstSec must be positive")
	}
	*e = Extremal{
		Flow:       flow,
		Rate:       rate,
		Rho:        rho,
		Sigma:      burstSec * rho,
		PacketSize: 10_000,
		Period:     des.Seconds(12),
	}
	if e.baseRate() <= 0 {
		panic("traffic: extremal burst exceeds the period budget")
	}
	return e
}

// baseRate returns the CBR rate between bursts that restores the long-run
// average: Rate·T = σ + base·T.
func (e *Extremal) baseRate() float64 {
	t := e.Period.Seconds()
	return (e.Rate*t - e.Sigma) / t
}

// Name implements Source.
func (e *Extremal) Name() string {
	return fmt.Sprintf("extremal(σ=%.0f,ρ=%.0f)", e.Sigma, e.Rho)
}

// AvgRate implements Source.
func (e *Extremal) AvgRate() float64 { return e.Rate }

// Envelope returns the exact (σ, ρ) constraint the flow conforms to
// (plus one packet of packetisation slack).
func (e *Extremal) Envelope() Envelope {
	return Envelope{Sigma: e.Sigma + e.PacketSize, Rho: e.Rho}
}

// Start implements Source.
func (e *Extremal) Start(eng *des.Engine, until des.Time, emit func(Packet)) {
	e.StartSink(eng, until, SinkFunc(emit))
}

// StartSink implements Source: Resume, then the first cycle now. The flow
// is the owner of its own events, so emission allocates nothing.
func (e *Extremal) StartSink(eng *des.Engine, until des.Time, out Sink) {
	e.Resume(eng, until, out)
	eng.ScheduleInKind(0, des.KindSrcCycle, uint32(e.Flow))
}

// Resume binds the flow to the engine, horizon and sink without scheduling
// anything, and registers it as the owner of its cycle and tick events at
// slot Flow: Start calls it and schedules the first cycle; a checkpoint
// restore calls it after Restore, and the engine re-inserts the serialized
// events.
func (e *Extremal) Resume(eng *des.Engine, until des.Time, out Sink) {
	e.eng, e.until, e.out = eng, until, out
	e.gap = des.Seconds(e.PacketSize / e.baseRate())
	eng.Own(des.KindSrcCycle, uint32(e.Flow), e)
}

// Fire is the flow's event: des.KindSrcCycle starts a period with the burst
// σ at one instant, des.KindSrcTick emits one base-rate packet. Either then
// schedules the next base-rate packet, or the next cycle once the period's
// budget is spent.
func (e *Extremal) Fire(kind uint16) {
	now := e.eng.Now()
	if now >= e.until {
		return
	}
	if kind == des.KindSrcCycle {
		e.start = now
		remaining := e.Sigma
		for ; remaining >= e.PacketSize; remaining -= e.PacketSize {
			e.put(e.PacketSize)
		}
		if remaining > 1 {
			e.put(remaining)
		}
	} else {
		e.put(e.PacketSize)
	}
	if now-e.start+e.gap > e.Period {
		e.eng.ScheduleKind(e.start+e.Period, des.KindSrcCycle, uint32(e.Flow))
		return
	}
	e.eng.ScheduleInKind(e.gap, des.KindSrcTick, uint32(e.Flow))
}

// put emits the flow's next packet, size bits, now.
func (e *Extremal) put(size float64) {
	e.out.Put(Packet{ID: e.nextID, Flow: e.Flow, Size: size, CreatedAt: e.eng.Now()})
	e.nextID++
}

// SnapTag names the source type in a checkpoint.
func (e *Extremal) SnapTag() uint8 { return TagExtremal }

// Snapshot appends the flow's mutable runtime words to the open record.
func (e *Extremal) Snapshot(w *snap.Writer) {
	w.U64(e.nextID)
	w.I64(int64(e.start))
}

// Restore overwrites the flow's mutable runtime words from the open record.
func (e *Extremal) Restore(r *snap.Reader) {
	e.nextID = r.U64()
	e.start = des.Time(r.I64())
}

// ExtremalMixN builds n extremal flows matching a media mix's rates by
// cycling its three-flow pattern (see Mix.VideoFlow): audio flows use
// small packets (1280 bits) and video flows MTU packets, all aligned in
// phase — the multi-group worst case at any K (the paper feeds every group
// the same stream). rhoMargin is the envelope headroom (e.g. 1.04);
// burstSec sets each flow's σ in seconds of its ρ. The flows are one slab.
func ExtremalMixN(m Mix, n int, rhoMargin, burstSec float64) []Source {
	if rhoMargin <= 1 {
		panic("traffic: rhoMargin must exceed 1")
	}
	if n < 1 {
		panic("traffic: ExtremalMixN needs at least one flow")
	}
	flows, out := make([]Extremal, n), make([]Source, n)
	for i := 0; i < n; i++ {
		rate, pkt := float64(AudioRate), 1280.0
		if m.VideoFlow(i) {
			rate, pkt = VideoRate, 10_000
		}
		e := flows[i].init(i, rate, rhoMargin*rate, burstSec)
		e.PacketSize = pkt
		out[i] = e
	}
	return out
}

// ExtremalSpecsForN returns the exact envelopes of ExtremalMixN's flows:
// (σ + packet, ρ) per flow.
func ExtremalSpecsForN(m Mix, n int, rhoMargin, burstSec float64) []Envelope {
	out := make([]Envelope, 0, n)
	for _, s := range ExtremalMixN(m, n, rhoMargin, burstSec) {
		out = append(out, s.(*Extremal).Envelope())
	}
	return out
}
