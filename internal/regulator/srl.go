package regulator

import (
	"repro/internal/des"
	"repro/internal/snap"
	"repro/internal/traffic"
)

// SRL is the paper's (σ, ρ, λ) regulator (Section III, Fig. 2): an on/off
// duty-cycle shaper. During the working period W the regulator is
// work-conserving and drains its queue at the full link capacity C; during
// the vacation period V it blocks all output. The parameters follow Eq. (1)
// and the surrounding analysis:
//
//	λ = C/(C−ρ)        (paper normalises C=1 ⇒ λ = 1/(1−ρ))
//	W = σ/(C−ρ)        (working period)
//	V = σ/ρ            (vacation period)
//	P = W + V = λσ/ρ   (regulator period)
//
// The long-run output rate is exactly W·C/P = ρ, so the duty cycle
// preserves stability while bounding each flow's hogging of the output
// link to W time units per period — the property that lets K staggered
// regulators smooth simultaneous bursts.
type SRL struct {
	eng *des.Engine
	// Sigma, Rho, C are the flow envelope and the link capacity (bits,
	// bits/second, bits/second).
	Sigma, Rho, C float64
	out           traffic.Sink

	q fifo
	// The gate: the clock's while the regulator follows one, else the
	// regulator's own on flag (SetOn). rank is the regulator's place in the
	// clock's follow order; waiting says it is on the clock's waiting list.
	clock        *Cycle
	own          bool // the clock is StartCycle's private one
	rank         uint64
	waiting      bool
	on           bool
	transmitting bool
	retiring     bool   // retired mid-transmission: retires on completion
	slot         uint32 // in the engine's KindSRLDone owner table
}

// NewSRL returns a (σ, ρ, λ) regulator. Its gate starts shut and driven by
// hand (SetOn); Follow or StartCycle puts it on a duty-cycle clock. Its
// queue is in a packet pool of its own. It panics unless 0 < ρ < C and
// σ > 0.
func NewSRL(eng *des.Engine, sigma, rho, c float64, out func(traffic.Packet)) *SRL {
	if out == nil {
		panic("regulator: nil output")
	}
	return new(SRL).init(eng, sigma, rho, c, traffic.SinkFunc(out), new(snap.Arena[traffic.Packet]))
}

// init is NewSRL into zeroed storage the caller made, its queue's buffers
// carved from pool (see Slab).
func (r *SRL) init(eng *des.Engine, sigma, rho, c float64, out traffic.Sink, pool *snap.Arena[traffic.Packet]) *SRL {
	r.set(eng, sigma, rho, c, out, pool)
	r.slot = eng.Register(des.KindSRLDone, r)
	return r
}

// set gives a zeroed record its envelope, link capacity, output and pool.
func (r *SRL) set(eng *des.Engine, sigma, rho, c float64, out traffic.Sink, pool *snap.Arena[traffic.Packet]) {
	if sigma <= 0 || rho <= 0 || c <= 0 || rho >= c {
		panic("regulator: SRL requires σ>0 and 0<ρ<C")
	}
	if out == nil {
		panic("regulator: nil output")
	}
	r.eng, r.Sigma, r.Rho, r.C, r.out, r.q.pool = eng, sigma, rho, c, out, pool
}

// ReuseSRL remakes the (σ, ρ, λ) regulator eng retired last (Retire) as
// NewSRL would, at its owner-table slot, keeping its emptied queue window
// and its output, which the caller re-points; nil when eng has none to
// reuse.
func ReuseSRL(eng *des.Engine, sigma, rho, c float64) *SRL {
	h, slot, ok := eng.Reclaim(des.KindSRLDone)
	if !ok {
		return nil
	}
	r := h.(*SRL)
	buf, pool, out := r.q.buf, r.q.pool, r.out
	*r = SRL{slot: slot}
	r.set(eng, sigma, rho, c, out, pool)
	r.q.buf = buf
	eng.Own(des.KindSRLDone, slot, r)
	return r
}

// Fire is the transmit completion (des.KindSRLDone): the head packet
// leaves, and the regulator serves the next if its gate is open — or, if
// Retire caught the packet mid-transmission, retires.
func (r *SRL) Fire(uint16) {
	r.transmitting = false
	r.out.Put(r.q.pop())
	if r.retiring {
		r.retire()
		return
	}
	r.serve()
}

// retire hands a regulator that transmits nothing back to its engine: its
// record, its queue window emptied, and its owner-table slot, for ReuseSRL.
func (r *SRL) retire() {
	r.retiring = false
	r.q.buf, r.q.head = r.q.buf[:0], 0
	r.eng.Retire(des.KindSRLDone, r.slot)
}

// DutyCycle returns the working period W = σ/(C−ρ) and the vacation
// V = σ/ρ of a (σ, ρ, λ) duty cycle on a link of capacity C, as simulation
// durations. Every duty-cycle clock takes its schedule from here.
func DutyCycle(sigma, rho, c float64) (w, v des.Duration) {
	return des.Seconds(sigma / (c - rho)), des.Seconds(sigma / rho)
}

// Backlog reports the bits currently held back, summed over the queue:
// a trace reads it, the regulator itself never does.
func (r *SRL) Backlog() float64 {
	bits := 0.0
	for _, p := range r.q.buf[r.q.head:] {
		bits += p.Size
	}
	return bits
}

// QueueLen reports the packets currently held back.
func (r *SRL) QueueLen() int { return r.q.len() }

// Slot returns the regulator's slot in its engine's KindSRLDone owner
// table.
func (r *SRL) Slot() uint32 { return r.slot }

// Out returns where the regulator puts a packet it has transmitted.
func (r *SRL) Out() traffic.Sink { return r.out }

// Following reports whether the regulator follows a clock.
func (r *SRL) Following() bool { return r.clock != nil }

// On reports whether the regulator's gate is open: its clock's working
// state while it follows one, else what SetOn last set.
func (r *SRL) On() bool {
	if r.clock != nil {
		return r.clock.on
	}
	return r.on
}

// Transmitting reports whether a packet is mid-serialisation. After a
// Detach it stays true until the non-preempted packet completes — a
// caller tearing down the output path can use it to account that
// packet's output as lost too.
func (r *SRL) Transmitting() bool { return r.transmitting }

// Enqueue submits a packet for shaping, from engine context (inside an
// event) so that Now() is meaningful.
func (r *SRL) Enqueue(p traffic.Packet) {
	r.q.push(p, r.Sigma)
	if !r.transmitting {
		r.serve()
	}
}

// SetOn switches a regulator that follows no clock between working and
// vacation states. Switching off is non-preemptive: a packet
// mid-transmission completes.
func (r *SRL) SetOn(on bool) {
	if r.clock != nil {
		panic("regulator: SetOn on a clock-driven SRL")
	}
	r.on = on
	if on && !r.transmitting {
		r.serve()
	}
}

// serve starts transmitting the head packet if the gate is open; behind a
// clock's shut gate the regulator joins the waiting list the on-edge
// serves. Called only with nothing in transmission.
func (r *SRL) serve() {
	if r.q.empty() {
		return
	}
	if !r.On() {
		if r.clock != nil && !r.waiting {
			r.waiting = true
			r.clock.waiting = append(r.clock.waiting, r)
		}
		return
	}
	r.transmitting = true
	r.eng.ScheduleInKind(des.Seconds(r.q.peek().Size/r.C), des.KindSRLDone, r.slot)
}

// Follow puts the regulator on clock c, last in its follow order: the gate
// is c's from now on. A host staggers its K regulators on clocks offset by
// Σ_{j<i} W_j so the working periods interleave round-robin, which is the
// paper's "each regulator works for its flow in turn": for K homogeneous
// flows near saturation (ρ → C/K) the vacation V = σ/ρ ≈ (K−1)·W, so the
// schedule degenerates to perfect round-robin — exactly the physical
// argument of Section III. For heterogeneous flows the periods differ and
// occasional overlaps are resolved downstream by the general MUX. Because
// a clock is anchored at time zero, a regulator attached mid-run drops
// into the phase its siblings have followed since the start — attach order
// and attach time drop out of the phase.
func (r *SRL) Follow(c *Cycle) {
	if r.clock != nil {
		panic("regulator: SRL cycle already started")
	}
	r.clock = c
	r.rank = c.nextRank
	c.nextRank++
	if !r.transmitting {
		r.serve()
	}
}

// StartCycle follows a private clock with the regulator's own W and V and
// the given phase offset, started now; StopCycle stops it.
func (r *SRL) StartCycle(offset des.Duration) {
	if r.clock != nil {
		panic("regulator: SRL cycle already started")
	}
	w, v := DutyCycle(r.Sigma, r.Rho, r.C)
	c := NewCycle(r.eng, offset, w, v)
	c.Start()
	r.own = true
	r.Follow(c)
}

// StopCycle leaves the clock, keeping the gate as the clock last had it.
func (r *SRL) StopCycle() {
	c := r.clock
	if c == nil {
		return
	}
	if r.waiting {
		r.waiting = false
		c.unwait(r)
	}
	if r.own {
		r.own = false
		c.Stop()
	}
	r.on = c.on
	r.clock = nil
}

// Detach takes the regulator permanently out of service: it leaves its
// clock, the gate closes, and no further packets are emitted — except a
// packet already mid-transmission, which completes (switching is
// non-preemptive). It returns the number of queued packets abandoned, so
// the control plane can account them as lost during repair. Sibling
// regulators are untouched: their phases come from the clock, not from
// this regulator's presence.
func (r *SRL) Detach() int {
	r.StopCycle()
	r.on = false
	dropped := r.q.len()
	if r.transmitting {
		dropped-- // the in-flight packet still departs
	}
	return dropped
}

// Retire hands a regulator Detach took out of service back to its engine
// (des.Engine.Retire) — its record, its queue window emptied, and its
// owner-table slot — for ReuseSRL, once no event names it: at once, or
// when the packet in transmission completes. Nothing may use it after.
func (r *SRL) Retire() {
	if r.transmitting {
		r.retiring = true
		return
	}
	r.retire()
}
