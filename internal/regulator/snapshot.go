package regulator

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/snap"
	"repro/internal/traffic"
)

// Checkpoint support. Envelope parameters and output wiring are
// construction-time (the restored session recreates the regulator with
// identical arguments); Snapshot and the Slab's Restore methods cover the
// mutable words. A restored regulator or clock registers in its engine's
// owner table as a made one does, and the engine re-inserts its pending
// events; the one handle a component keeps, a (σ, ρ) regulator's token
// wait, comes back through Reattach, and with it the serving flag, which
// is set exactly while that wait is pending.

// snapshot appends the queue's live packets. The head index is memory
// layout, not semantics, so the restored queue starts compacted.
func (q *fifo) snapshot(w *snap.Writer) {
	w.Len(q.len())
	for _, p := range q.buf[q.head:] {
		p.Snapshot(w)
	}
}

// restore fills the queue from the open record, in a window of its pool:
// capacity is exactly the restored length.
func (q *fifo) restore(r *snap.Reader, flows int) {
	q.buf = q.pool.Take(r.Count(traffic.PacketSnapBytes))
	q.head = 0
	for i := range q.buf {
		q.buf[i] = traffic.RestorePacket(r, flows)
	}
}

// Wire widths of the layouts below, for a decoder sizing storage from
// counts it reads (snap.Reader.Count): one regulator of each model with an
// empty queue, one clock. TestSnapWidths pins them to what Snapshot writes.
const (
	SigmaRhoSnapBytes = 4 + 8 + 8
	SRLSnapBytes      = 4 + 1 + 1 + 1 + 8
	CycleSnapBytes    = 1 + 8
)

// Slab is the storage a session makes its regulators and clocks in: one
// array per model and one of waiting-list seats, one per (σ, ρ, λ)
// regulator, sized from totals known up front — a live build's forwarding
// plan, a checkpoint record's counts — where the constructors and a clock's
// waiting list would make them one at a time. A follower churn adds later
// grows its clock's list off the slab. Every queue the slab's regulators
// hold — its first buffer, each regrowth, a restored queue's buffer, whose
// capacity is exactly its length — is a window of one packet pool, which
// the slab shares with the MUXes of its engine (mux.Line.Pool). Past its
// totals the slab refills by the chunk, as snap.Arena does. The zero Slab
// has no pool: a session that makes regulators makes its slab with
// NewSlab.
type Slab struct {
	sr      snap.Arena[SigmaRho]
	cycles  snap.Arena[Cycle]
	srl     snap.Arena[SRL]
	waiters snap.Arena[*SRL]
	seats   uint64 // waiting-list entries left in waiters
	packets *snap.Arena[traffic.Packet]
}

// NewSlab returns storage for that many (σ, ρ) regulators, clocks and
// (σ, ρ, λ) regulators, whose queues take their buffers from packets.
func NewSlab(sigmaRhos, cycles, srls int, packets *snap.Arena[traffic.Packet]) Slab {
	return Slab{
		sr:      snap.NewArena[SigmaRho](sigmaRhos),
		cycles:  snap.NewArena[Cycle](cycles),
		srl:     snap.NewArena[SRL](srls),
		waiters: snap.NewArena[*SRL](srls),
		seats:   uint64(srls),
		packets: packets,
	}
}

// Seat carves c's empty waiting list a seat per rank it has handed out —
// after a build, one per follower — as far as the slab's seats go.
func (sl *Slab) Seat(c *Cycle) {
	n := min(c.nextRank, sl.seats)
	sl.seats -= n
	c.waiting = sl.waiters.Take(int(n))[:0]
}

// NewSigmaRho is the package's NewSigmaRho in the slab's next (σ, ρ)
// regulator, with the output a Sink.
func (sl *Slab) NewSigmaRho(eng *des.Engine, sigma, rho float64, out traffic.Sink) *SigmaRho {
	return sl.sr.One().init(eng, sigma, rho, out, sl.packets)
}

// NewSRL is the package's NewSRL in the slab's next (σ, ρ, λ) regulator,
// with the output a Sink.
func (sl *Slab) NewSRL(eng *des.Engine, sigma, rho, c float64, out traffic.Sink) *SRL {
	return sl.srl.One().init(eng, sigma, rho, c, out, sl.packets)
}

// NewCycle is the package's NewCycle in the slab's next clock.
func (sl *Slab) NewCycle(eng *des.Engine, offset, w, v des.Duration) *Cycle {
	return sl.cycles.One().init(eng, offset, w, v)
}

// Snapshot appends the regulator's mutable state to the open record.
func (s *SigmaRho) Snapshot(w *snap.Writer) {
	s.q.snapshot(w)
	w.F64(s.tokens)
	w.I64(int64(s.lastUpdate))
}

// RestoreSigmaRho makes the slab's next (σ, ρ) regulator as NewSigmaRho
// would and overwrites its mutable state from the open record; a queued
// packet with a flow outside [0, flows) fails the reader. It comes back
// not serving: Reattach hands it its token wait, if one was pending.
func (sl *Slab) RestoreSigmaRho(r *snap.Reader, flows int, eng *des.Engine, sigma, rho float64, out traffic.Sink) *SigmaRho {
	s := sl.NewSigmaRho(eng, sigma, rho, out)
	s.q.restore(r, flows)
	s.tokens = r.F64()
	s.lastUpdate = des.Time(r.I64())
	// serve never overdraws the bucket and refill caps it at σ or the head
	// packet; a level outside that turns into a token wait no clock can hold.
	if !(s.tokens >= -1e-9 && s.tokens <= max(sigma, traffic.MaxPacketBits)) {
		r.Fail(fmt.Errorf("regulator: snapshot token level %v outside [0, max(σ, largest packet)]", s.tokens))
	}
	return s
}

// Reattach hands a restored regulator its re-inserted token-wait event,
// which Detach cancels: the regulator is serving until it fires.
func (s *SigmaRho) Reattach(ev des.Event) { s.retryEv, s.serving = ev, true }

// Snapshot appends the regulator's mutable state to the open record. Its
// place on a clock — follow rank, waiting bit — is written here; whether it
// follows one, and which, is the caller's to record and resolve (Following,
// Rejoin).
func (r *SRL) Snapshot(w *snap.Writer) {
	r.q.snapshot(w)
	w.Bool(r.on)
	w.Bool(r.transmitting)
	w.Bool(r.waiting)
	w.U64(r.rank)
}

// RestoreSRL makes the slab's next (σ, ρ, λ) regulator as NewSRL would and
// overwrites its mutable state from the open record (see
// RestoreSigmaRho). The regulator comes back following no clock; one that
// followed is handed its restored clock with Rejoin.
func (sl *Slab) RestoreSRL(sr *snap.Reader, flows int, eng *des.Engine, sigma, rho, c float64, out traffic.Sink) *SRL {
	r := sl.NewSRL(eng, sigma, rho, c, out)
	r.q.restore(sr, flows)
	r.on = sr.Bool()
	r.transmitting = sr.Bool()
	r.waiting = sr.Bool()
	r.rank = sr.U64()
	return r
}

// RestoreCycle makes the slab's next clock as NewCycle would — not
// ticking: the engine re-inserts its pending edge — and overwrites its mutable
// state from the open record, seated (Seat): a next rank the record claims
// past its regulators sizes nothing.
func (sl *Slab) RestoreCycle(r *snap.Reader, eng *des.Engine, offset, w, v des.Duration) *Cycle {
	c := sl.NewCycle(eng, offset, w, v)
	c.on = r.Bool()
	c.nextRank = r.U64()
	sl.Seat(c)
	return c
}

// Rejoin binds a restored regulator to its restored clock under the rank
// and waiting bit its record carried. A rank the clock has yet to hand out
// fails the reader: a later Follow would hand it out again, and the
// on-edge could not tell the two apart.
func (r *SRL) Rejoin(sr *snap.Reader, c *Cycle) {
	if r.rank >= c.nextRank {
		sr.Fail(fmt.Errorf("regulator: snapshot follower rank %d at or past its clock's next rank %d", r.rank, c.nextRank))
		return
	}
	r.clock = c
	if r.waiting {
		c.waiting = append(c.waiting, r)
	}
}
