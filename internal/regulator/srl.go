package regulator

import (
	"repro/internal/des"
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
	out           func(traffic.Packet)

	q            fifo
	on           bool
	transmitting bool
	cycling      bool
	stopCycle    bool
	onEv         des.Event
	snapArg      uint32 // component slot for snapshot event tags
	done         func() // stored transmit-completion callback
	onPhaseFn    func() // stored duty-cycle callbacks (parameters are
	offPhaseFn   func() // immutable, so they are built once in NewSRL)

	// instrumentation
	emittedBits float64
	onSince     des.Time
	onTotal     des.Duration
}

// NewSRL returns a (σ, ρ, λ) regulator. The duty cycle is not started:
// call StartCycle or StartCyclePhased (self-timed), or drive SetOn directly.
// It panics unless 0 < ρ < C and σ > 0.
func NewSRL(eng *des.Engine, sigma, rho, c float64, out func(traffic.Packet)) *SRL {
	if sigma <= 0 || rho <= 0 || c <= 0 || rho >= c {
		panic("regulator: SRL requires σ>0 and 0<ρ<C")
	}
	if out == nil {
		panic("regulator: nil output")
	}
	r := &SRL{eng: eng, Sigma: sigma, Rho: rho, C: c, out: out}
	r.done = func() {
		r.transmitting = false
		p := r.q.pop()
		r.emittedBits += p.Size
		r.out(p)
		if r.on {
			r.serve()
		}
	}
	w, v := r.WorkPeriod(), r.Vacation()
	r.onPhaseFn = func() {
		if r.stopCycle {
			return
		}
		r.SetOn(true)
		r.onEv = r.eng.ScheduleInKind(w, des.KindSRLOff, r.snapArg, r.offPhaseFn)
	}
	r.offPhaseFn = func() {
		if r.stopCycle {
			return
		}
		r.SetOn(false)
		r.onEv = r.eng.ScheduleInKind(v, des.KindSRLOn, r.snapArg, r.onPhaseFn)
	}
	return r
}

// Lambda returns the control factor λ = C/(C−ρ).
func (r *SRL) Lambda() float64 { return r.C / (r.C - r.Rho) }

// WorkPeriod returns W = σ/(C−ρ) as a simulation duration.
func (r *SRL) WorkPeriod() des.Duration { return des.Seconds(r.Sigma / (r.C - r.Rho)) }

// Vacation returns V = σ/ρ as a simulation duration.
func (r *SRL) Vacation() des.Duration { return des.Seconds(r.Sigma / r.Rho) }

// Period returns P = W + V = λσ/ρ as a simulation duration.
func (r *SRL) Period() des.Duration { return r.WorkPeriod() + r.Vacation() }

// Name implements Regulator.
func (r *SRL) Name() string { return "sigma-rho-lambda" }

// Backlog implements Regulator.
func (r *SRL) Backlog() float64 { return r.q.bits }

// QueueLen implements Regulator.
func (r *SRL) QueueLen() int { return r.q.len() }

// On reports whether the regulator is currently in its working state.
func (r *SRL) On() bool { return r.on }

// Transmitting reports whether a packet is mid-serialisation. After a
// Detach it stays true until the non-preempted packet completes — a
// caller tearing down the output path can use it to account that
// packet's output as lost too.
func (r *SRL) Transmitting() bool { return r.transmitting }

// EmittedBits returns the cumulative output.
func (r *SRL) EmittedBits() float64 { return r.emittedBits }

// OnTime returns the cumulative time spent in the working state. Divided
// by elapsed time it converges to the duty ratio W/P = ρ/C in steady state.
func (r *SRL) OnTime() des.Duration {
	total := r.onTotal
	if r.on {
		total += r.eng.Now() - r.onSince
	}
	return total
}

// Enqueue implements Regulator.
func (r *SRL) Enqueue(p traffic.Packet) {
	r.q.push(p)
	if r.on && !r.transmitting {
		r.serve()
	}
}

// SetOn switches the regulator between working and vacation states.
// Switching off is non-preemptive: a packet mid-transmission completes.
func (r *SRL) SetOn(on bool) {
	if on == r.on {
		return
	}
	r.on = on
	if on {
		r.onSince = r.eng.Now()
		if !r.transmitting {
			r.serve()
		}
	} else {
		r.onTotal += r.eng.Now() - r.onSince
	}
}

func (r *SRL) serve() {
	if !r.on || r.q.empty() {
		return
	}
	r.transmitting = true
	r.eng.ScheduleInKind(des.Seconds(r.q.peek().Size/r.C), des.KindSRLDone, r.snapArg, r.done)
}

// StartCycle begins the self-timed duty cycle with the given phase offset:
// the regulator waits `offset`, then alternates W on / V off forever (or
// until StopCycle). A host staggers its K regulators with offsets Σ_{j<i} W_j
// so the working periods interleave round-robin, which is the paper's "each
// regulator works for its flow in turn": for K homogeneous flows near
// saturation (ρ → C/K) the vacation V = σ/ρ ≈ (K−1)·W, so the schedule
// degenerates to perfect round-robin — exactly the physical argument of
// Section III. For heterogeneous flows the periods differ and occasional
// overlaps are resolved downstream by the general MUX.
func (r *SRL) StartCycle(offset des.Duration) {
	if r.cycling {
		panic("regulator: SRL cycle already started")
	}
	r.cycling = true
	r.stopCycle = false
	r.onEv = r.eng.ScheduleInKind(offset, des.KindSRLOn, r.snapArg, r.onPhaseFn)
}

// StartCyclePhased begins the duty cycle mid-phase, as if it had been
// running since simulation time zero with the given offset: the regulator
// enters the on/off state the global schedule prescribes for Now and
// continues from there. At time zero it is StartCycle exactly; mid-run it
// is how the control plane re-staggers a freshly attached regulator so
// its working periods interleave with siblings that have been cycling
// since the start — attach order and attach time drop out of the phase.
func (r *SRL) StartCyclePhased(offset des.Duration) {
	now := r.eng.Now()
	if now <= offset {
		r.StartCycle(offset - now)
		return
	}
	if r.cycling {
		panic("regulator: SRL cycle already started")
	}
	r.cycling = true
	r.stopCycle = false
	w, p := r.WorkPeriod(), r.Period()
	pos := (now - offset) % p
	if pos < w {
		// Inside a working period: turn on and finish it.
		r.SetOn(true)
		r.onEv = r.eng.ScheduleInKind(w-pos, des.KindSRLOff, r.snapArg, r.offPhaseFn)
	} else {
		// Inside a vacation: stay off until the next working period.
		r.SetOn(false)
		r.onEv = r.eng.ScheduleInKind(p-pos, des.KindSRLOn, r.snapArg, r.onPhaseFn)
	}
}

// StopCycle halts the duty cycle, leaving the regulator in its current
// state.
func (r *SRL) StopCycle() {
	r.stopCycle = true
	r.cycling = false
	r.eng.Cancel(r.onEv)
	r.onEv = des.Event{}
}

// Detach takes the regulator permanently out of service: the duty cycle
// stops, the gate closes, and no further packets are emitted — except a
// packet already mid-transmission, which completes (switching is
// non-preemptive). It returns the number of queued packets abandoned, so
// the control plane can account them as lost during repair. Sibling
// regulators are untouched: their phases come from the global stagger
// schedule, not from this regulator's presence.
func (r *SRL) Detach() int {
	if r.cycling {
		r.StopCycle()
	}
	r.SetOn(false)
	dropped := r.q.len()
	if r.transmitting {
		dropped-- // the in-flight packet still departs
	}
	return dropped
}
