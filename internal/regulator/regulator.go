// Package regulator implements the traffic regulators at the heart of the
// paper: Cruz's (σ, ρ) regulator and the paper's novel (σ, ρ, λ)
// duty-cycle regulator, plus the duty-cycle clock (Cycle) that the
// regulators sharing one stagger phase follow and the one formula
// (DutyCycle) every such clock's W and V come from.
//
// Both regulators are event-driven shapers on a des.Engine: packets enter
// through Enqueue and conformant packets leave through the output Sink in
// FIFO order per flow. Each regulator and clock registers in its engine
// as the owner of its own events, so making one binds no callback.
package regulator

import (
	"math"

	"repro/internal/des"
	"repro/internal/snap"
	"repro/internal/traffic"
)

// fifo is a slice-backed packet queue with amortised O(1) operations. Its
// buffers are windows of pool, the packet pool its regulator was made
// with.
type fifo struct {
	buf  []traffic.Packet
	head int
	pool *snap.Arena[traffic.Packet]
}

// push appends p. A full buffer at least half consumed slides its live
// packets to the front, so a queue that never quite drains does not creep
// to a fresh doubling every few packets. Any other full buffer moves to a
// new window of the pool with room for twice as many packets or for a
// burst of packets like p — ⌈sigma/p.Size⌉ + 1 of them, at most maxBurst —
// whichever is more: a regulator that fills to its burst takes one window
// instead of doubling its way there, and so does a restored one, whose
// buffer holds exactly what it restored. The window it leaves stays with
// its chunk of the pool.
func (q *fifo) push(p traffic.Packet, sigma float64) {
	if n := len(q.buf); n == cap(q.buf) {
		live := q.buf[q.head:]
		if n == 0 || q.head*2 < n {
			burst := maxBurst
			if b := math.Ceil(sigma / p.Size); b < maxBurst-1 {
				burst = int(b) + 1
			}
			q.buf = q.pool.Take(max(2*n, burst))
		}
		q.buf = append(q.buf[:0], live...)
		q.head = 0
	}
	q.buf = append(q.buf, p)
}

// maxBurst caps the burst a buffer is sized for: a burst of tiny packets
// (a hostile checkpoint's, say) must not make a huge one.
const maxBurst = 64

func (q *fifo) empty() bool { return q.head >= len(q.buf) }

func (q *fifo) len() int { return len(q.buf) - q.head }

func (q *fifo) peek() traffic.Packet { return q.buf[q.head] }

// pop removes the head packet, rewinding an emptied queue for free.
func (q *fifo) pop() traffic.Packet {
	p := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return p
}

// SigmaRho is Cruz's (σ, ρ) regulator: a token bucket with depth σ bits
// refilled at ρ bits/second. A packet departs as soon as the bucket holds
// its size in tokens, so bursts up to σ pass unshaped while the long-run
// output never exceeds σ + ρ·t over any interval of length t.
type SigmaRho struct {
	eng *des.Engine
	// Sigma and Rho are the envelope parameters (bits, bits/second).
	Sigma, Rho float64
	out        traffic.Sink

	q          fifo
	tokens     float64
	lastUpdate des.Time
	serving    bool
	slot       uint32    // in the engine's KindSRRetry owner table
	retryEv    des.Event // pending token-wait event (for Detach)
}

// NewSigmaRho returns a (σ, ρ) regulator starting with a full bucket, its
// queue in a packet pool of its own.
func NewSigmaRho(eng *des.Engine, sigma, rho float64, out func(traffic.Packet)) *SigmaRho {
	if out == nil {
		panic("regulator: nil output")
	}
	return new(SigmaRho).init(eng, sigma, rho, traffic.SinkFunc(out), new(snap.Arena[traffic.Packet]))
}

// init is NewSigmaRho into zeroed storage the caller made, its queue's
// buffers carved from pool (see Slab).
func (s *SigmaRho) init(eng *des.Engine, sigma, rho float64, out traffic.Sink, pool *snap.Arena[traffic.Packet]) *SigmaRho {
	s.set(eng, sigma, rho, out, pool)
	s.slot = eng.Register(des.KindSRRetry, s)
	return s
}

// set gives a zeroed record its envelope, output and pool, and a full
// bucket.
func (s *SigmaRho) set(eng *des.Engine, sigma, rho float64, out traffic.Sink, pool *snap.Arena[traffic.Packet]) {
	if sigma < 0 || rho <= 0 {
		panic("regulator: invalid (σ,ρ) parameters")
	}
	if out == nil {
		panic("regulator: nil output")
	}
	s.eng, s.Sigma, s.Rho, s.out, s.tokens, s.q.pool = eng, sigma, rho, out, sigma, pool
}

// ReuseSigmaRho remakes the (σ, ρ) regulator eng retired last (Retire) as
// NewSigmaRho would, at its owner-table slot, keeping its emptied queue
// window and its output, which the caller re-points; nil when eng has none
// to reuse.
func ReuseSigmaRho(eng *des.Engine, sigma, rho float64) *SigmaRho {
	h, slot, ok := eng.Reclaim(des.KindSRRetry)
	if !ok {
		return nil
	}
	s := h.(*SigmaRho)
	buf, pool, out := s.q.buf, s.q.pool, s.out
	*s = SigmaRho{slot: slot}
	s.set(eng, sigma, rho, out, pool)
	s.q.buf = buf
	eng.Own(des.KindSRRetry, slot, s)
	return s
}

// Fire is the token-wait retry (des.KindSRRetry).
func (s *SigmaRho) Fire(uint16) {
	s.serving = false
	s.serve()
}

// QueueLen reports the packets currently held back.
func (s *SigmaRho) QueueLen() int { return s.q.len() }

// Slot returns the regulator's slot in its engine's KindSRRetry owner
// table.
func (s *SigmaRho) Slot() uint32 { return s.slot }

// Out returns where the regulator puts a conformant packet.
func (s *SigmaRho) Out() traffic.Sink { return s.out }

func (s *SigmaRho) refill() {
	now := s.eng.Now()
	if now > s.lastUpdate {
		// The bucket cap stretches to the head packet when that packet is
		// larger than σ, so oversized packets still eventually conform
		// (the effective envelope is (σ + L_max, ρ), the usual packetised
		// form of Cruz's fluid regulator).
		cap := s.Sigma
		if !s.q.empty() && s.q.peek().Size > cap {
			cap = s.q.peek().Size
		}
		s.tokens += s.Rho * (now - s.lastUpdate).Seconds()
		if s.tokens > cap {
			s.tokens = cap
		}
		s.lastUpdate = now
	}
}

// Enqueue submits a packet for shaping, from engine context (inside an
// event) so that Now() is meaningful.
func (s *SigmaRho) Enqueue(p traffic.Packet) {
	s.q.push(p, s.Sigma)
	if !s.serving {
		s.serve()
	}
}

func (s *SigmaRho) serve() {
	s.refill()
	for !s.q.empty() {
		need := s.q.peek().Size
		if s.tokens+1e-9 >= need {
			s.tokens -= need
			p := s.q.pop()
			s.out.Put(p)
			continue
		}
		// Wait until the bucket accumulates enough tokens.
		wait := des.Seconds((need - s.tokens) / s.Rho)
		if wait < 1 {
			wait = 1
		}
		s.serving = true
		s.retryEv = s.eng.ScheduleInKind(wait, des.KindSRRetry, s.slot)
		return
	}
	s.serving = false
}

// Detach takes the regulator permanently out of service: the pending
// token-wait (if any) is cancelled and the backlog abandoned. It returns
// the number of queued packets dropped, so the control plane can account
// them as lost when a forwarder departs.
func (s *SigmaRho) Detach() int {
	s.eng.Cancel(s.retryEv)
	s.retryEv = des.Event{}
	s.serving = false
	return s.q.len()
}

// Retire hands a regulator Detach took out of service back to its engine
// (des.Engine.Retire) — its record, its queue window emptied, and its
// owner-table slot — for ReuseSigmaRho. Detach left no event naming it, so
// it retires at once; nothing may use it after.
func (s *SigmaRho) Retire() {
	s.q.buf, s.q.head = s.q.buf[:0], 0
	s.eng.Retire(des.KindSRRetry, s.slot)
}
