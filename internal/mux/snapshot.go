package mux

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/snap"
	"repro/internal/traffic"
)

// Checkpoint support. Construction parameters (k, c, discipline, out) are
// recomputed by the restored session; Snapshot and Slab.Restore cover only
// the mutable words. Queued entries are written head-to-tail and restored
// with heads reset to zero — head position is memory layout, not service
// order, so the compaction bookkeeping does not need to survive.

// SetSnapArg registers the MUX's slot in the session's component
// registry; transmit-completion events carry it so a restore can route
// each serialized event back to its component.
func (m *Mux) SetSnapArg(arg uint32) { m.snapArg = arg }

func snapEntry(w *snap.Writer, e entry) {
	e.p.Snapshot(w)
	w.U64(e.seq)
}

func restoreEntry(r *snap.Reader, flows int) entry {
	return entry{
		p:   traffic.RestorePacket(r, flows),
		seq: r.U64(),
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
	if m.busy {
		snapEntry(w, m.cur)
	}
}

// Wire widths of the layout above, for a decoder sizing storage from
// counts it reads (snap.Reader.Count): one idle MUX with no queue, one
// materialised queue's header, one queued entry. TestSnapWidths pins them
// to what Snapshot writes.
const (
	SnapBytes      = 4 + 8 + 1 + 8
	SnapSlotBytes  = 4 + 4
	SnapEntryBytes = traffic.PacketSnapBytes + 8
)

// Slab is the storage a session makes its MUXes in: the MUXes themselves,
// their queue tables and every queued entry sit in five arrays sized from
// a total known up front — a live build's connection count, a checkpoint
// record's totals — where New and Enqueue would make them one MUX and one
// doubling at a time. A restored queue's capacity is exactly its length;
// it grows off the slab like any other from its first arrival on. Past
// its totals a slab makes each MUX on its own; the zero Slab is an empty
// one.
type Slab struct {
	muxes   snap.Arena[Mux]
	flows   snap.Arena[int32]
	queues  snap.Arena[[]entry]
	heads   snap.Arena[int]
	entries snap.Arena[entry]
}

// NewSlab returns storage for that many MUXes, materialised queues and
// queued entries in total.
func NewSlab(muxes, slots, entries int) Slab {
	return Slab{
		muxes:   snap.NewArena[Mux](muxes),
		flows:   snap.NewArena[int32](slots),
		queues:  snap.NewArena[[]entry](slots),
		heads:   snap.NewArena[int](slots),
		entries: snap.NewArena[entry](entries),
	}
}

// New is the package's New in the slab's next MUX, with the output a Sink.
func (sl *Slab) New(eng *des.Engine, k int, c float64, d Discipline, out traffic.Sink) *Mux {
	return sl.muxes.One().init(eng, k, c, d, out)
}

// Restore makes the slab's next MUX as New would and overwrites its mutable
// state from the open record, failing the reader on a flow id outside
// [0, k) or slots out of ascending order (slot lookups are binary
// searches). The transmit-completion event, if one was pending, arrives
// separately via Rearm during event replay.
func (sl *Slab) Restore(r *snap.Reader, eng *des.Engine, k int, c float64, d Discipline, out traffic.Sink) *Mux {
	m := sl.New(eng, k, c, d, out)
	n := r.Count(SnapSlotBytes)
	m.slotFlow, m.queues, m.heads = sl.flows.Take(n), sl.queues.Take(n), sl.heads.Take(n)
	for s := range m.slotFlow {
		f := int32(r.U32())
		if f < 0 || int(f) >= k || (s > 0 && f <= m.slotFlow[s-1]) {
			r.Fail(fmt.Errorf("mux: snapshot queue slot %d holds flow %d, outside [0,%d) or out of order", s, f, k))
			return m
		}
		m.slotFlow[s] = f
		m.queues[s] = sl.entries.Take(r.Count(SnapEntryBytes))
		for i := range m.queues[s] {
			m.queues[s][i] = restoreEntry(r, k)
		}
	}
	m.bits = r.F64()
	m.busy = r.Bool()
	m.seq = r.U64()
	if m.busy {
		m.cur = restoreEntry(r, k)
	}
	return m
}

// Rearm re-schedules the serialized transmit-completion event for the
// packet in m.cur (the MUX must have been restored busy) under its original
// stamps; false for a kind the MUX does not own.
func (m *Mux) Rearm(kind uint16, at, prio des.Time) bool {
	if kind != des.KindMuxDone {
		return false
	}
	m.eng.SchedulePrioKind(at, prio, kind, m.snapArg, m)
	return true
}
