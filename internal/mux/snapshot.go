package mux

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/snap"
	"repro/internal/traffic"
)

// Checkpoint support. Construction parameters (k, c, discipline, out) are
// recomputed by the restored session; Snapshot/Restore cover only the
// mutable words. Queued entries are written head-to-tail and restored
// with heads reset to zero — head position is memory layout, not service
// order, so the compaction bookkeeping does not need to survive.

// SetSnapArg registers the MUX's slot in the session's component
// registry; transmit-completion events carry it so a restore can route
// each serialized event back to its component.
func (m *Mux) SetSnapArg(arg uint32) { m.snapArg = arg }

func snapEntry(w *snap.Writer, e entry) {
	e.p.Snapshot(w)
	w.I64(int64(e.arrived))
	w.U64(e.seq)
}

func restoreEntry(r *snap.Reader, flows int) entry {
	return entry{
		p:       traffic.RestorePacket(r, flows),
		arrived: des.Time(r.I64()),
		seq:     r.U64(),
	}
}

// Snapshot appends the MUX's mutable state to the open record.
func (m *Mux) Snapshot(w *snap.Writer) {
	w.Len(len(m.slotFlow))
	for s, f := range m.slotFlow {
		w.U32(uint32(f))
		w.Len(m.qlen(s))
		for _, e := range m.queues[s][m.heads[s]:] {
			snapEntry(w, e)
		}
	}
	w.F64(m.bits)
	w.Bool(m.busy)
	w.U64(m.seq)
	w.I64(int64(m.rrNext))
	if m.busy {
		snapEntry(w, m.cur)
	}
	m.Delay.Snapshot(w)
	m.MaxWait.Snapshot(w)
	m.Served.Snapshot(w)
}

// Restore overwrites the MUX's mutable state from the open record,
// failing the reader on a flow id outside [0, flows) or slots out of
// ascending order (slot lookups are binary searches). The
// transmit-completion event, if one was pending, arrives separately via
// Rearm during event replay.
func (m *Mux) Restore(r *snap.Reader, flows int) {
	n := r.Len()
	m.slotFlow = m.slotFlow[:0]
	m.queues = m.queues[:0]
	m.heads = m.heads[:0]
	for s := 0; s < n; s++ {
		f := int32(r.U32())
		if f < 0 || int(f) >= flows || (s > 0 && f <= m.slotFlow[s-1]) {
			r.Fail(fmt.Errorf("mux: snapshot queue slot %d holds flow %d, outside [0,%d) or out of order", s, f, flows))
			return
		}
		m.slotFlow = append(m.slotFlow, f)
		q := r.Len()
		var qs []entry
		for i := 0; i < q; i++ {
			qs = append(qs, restoreEntry(r, flows))
		}
		m.queues = append(m.queues, qs)
		m.heads = append(m.heads, 0)
	}
	m.bits = r.F64()
	m.busy = r.Bool()
	m.seq = r.U64()
	m.rrNext = int(r.I64())
	if m.busy {
		m.cur = restoreEntry(r, flows)
	}
	m.Delay.Restore(r)
	m.MaxWait.Restore(r)
	m.Served.Restore(r)
}

// Rearm re-schedules the serialized transmit-completion event for the
// packet in m.cur (the MUX must have been restored busy) under its original
// stamps; false for a kind the MUX does not own.
func (m *Mux) Rearm(kind uint16, at, prio des.Time) bool {
	if kind != des.KindMuxDone {
		return false
	}
	m.eng.SchedulePrioKind(at, prio, kind, m.snapArg, m.done)
	return true
}
