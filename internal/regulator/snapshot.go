package regulator

import (
	"repro/internal/des"
	"repro/internal/snap"
	"repro/internal/traffic"
)

// Checkpoint support. Envelope parameters and output wiring are
// construction-time (the restored session recreates the regulator with
// identical arguments); Snapshot/Restore cover the mutable words, and
// Rearm re-schedules a serialized pending event with its original
// (at, prio) stamps during replay, refusing a kind the regulator does not
// own.

// snapshot appends the queue's live packets and exact bit total. The head
// index is memory layout, not semantics, so the restored queue starts
// compacted.
func (q *fifo) snapshot(w *snap.Writer) {
	w.Len(q.len())
	for _, p := range q.buf[q.head:] {
		p.Snapshot(w)
	}
	w.F64(q.bits)
}

func (q *fifo) restore(r *snap.Reader, flows int) {
	n := r.Len()
	q.buf = q.buf[:0]
	q.head = 0
	for i := 0; i < n; i++ {
		q.buf = append(q.buf, traffic.RestorePacket(r, flows))
	}
	q.bits = r.F64()
}

// SetSnapArg registers the regulator's slot in the session's component
// registry; its pending events carry it so a restore can route each
// serialized event back to its component.
func (s *SigmaRho) SetSnapArg(arg uint32) { s.snapArg = arg }

// Snapshot appends the regulator's mutable state to the open record.
func (s *SigmaRho) Snapshot(w *snap.Writer) {
	s.q.snapshot(w)
	w.F64(s.tokens)
	w.I64(int64(s.lastUpdate))
	w.Bool(s.serving)
}

// Restore overwrites the regulator's mutable state from the open record;
// a queued packet with a flow outside [0, flows) fails the reader.
func (s *SigmaRho) Restore(r *snap.Reader, flows int) {
	s.q.restore(r, flows)
	s.tokens = r.F64()
	s.lastUpdate = des.Time(r.I64())
	s.serving = r.Bool()
}

// Rearm re-schedules the serialized token-wait event.
func (s *SigmaRho) Rearm(kind uint16, at, prio des.Time) bool {
	if kind != des.KindSRRetry {
		return false
	}
	s.retryEv = s.eng.SchedulePrioKind(at, prio, kind, s.snapArg, s.retry)
	return true
}

// SetSnapArg registers the regulator's slot in the session's component
// registry (see SigmaRho.SetSnapArg).
func (r *SRL) SetSnapArg(arg uint32) { r.snapArg = arg }

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
	w.F64(r.emittedBits)
}

// Restore overwrites the regulator's mutable state from the open record
// (see SigmaRho.Restore). The regulator comes back following no clock; one
// that followed is handed its restored clock with Rejoin.
func (r *SRL) Restore(sr *snap.Reader, flows int) {
	r.q.restore(sr, flows)
	r.on = sr.Bool()
	r.transmitting = sr.Bool()
	r.waiting = sr.Bool()
	r.rank = sr.U64()
	r.emittedBits = sr.F64()
}

// Rejoin binds a restored regulator to its restored clock under the rank
// and waiting bit its record carried.
func (r *SRL) Rejoin(c *Cycle) {
	r.clock = c
	if r.waiting {
		c.waiting = append(c.waiting, r)
	}
}

// Rearm re-schedules the serialized transmit-completion event.
func (r *SRL) Rearm(kind uint16, at, prio des.Time) bool {
	if kind != des.KindSRLDone {
		return false
	}
	r.eng.SchedulePrioKind(at, prio, kind, r.snapArg, r.done)
	return true
}
