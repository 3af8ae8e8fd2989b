package mux

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/snap"
	"repro/internal/traffic"
)

// Checkpoint support. Construction parameters (the Line, c and the ends)
// are recomputed by the restored session; Snapshot and Slab.Restore cover only
// the mutable words. The queue is written oldest first and restored with
// its head at zero — head position is memory layout, not service order,
// so the compaction bookkeeping does not need to survive.

// Snapshot appends the MUX's mutable state to the open record.
func (m *Mux) Snapshot(w *snap.Writer) {
	w.Len(m.Len())
	for _, p := range m.q[m.head:] {
		p.Snapshot(w)
	}
	w.Bool(m.Busy())
	if m.Busy() {
		m.cur.Snapshot(w)
	}
}

// SnapBytes is the wire width of one idle MUX with an empty queue, for a
// decoder sizing storage from counts it reads (snap.Reader.Count); a
// queued packet adds traffic.PacketSnapBytes. TestSnapWidths pins both to
// what Snapshot writes.
const SnapBytes = 4 + 1

// Slab is the storage a session makes its MUXes in: the MUXes themselves
// and their queued packets sit in two arrays sized from totals known up
// front — a live build's connections and the flows routed through them, a
// checkpoint record's totals plus those routed flows — where New and
// Enqueue would make them one MUX and one doubling at a time. Built or
// restored, a MUX's queue is carved with room for a packet of each flow
// routed through it. A queue's carved capacity is a hint: a queue that
// outgrows it grows into its Line's packet pool (Line.Pool). Past its
// totals a slab refills by the chunk, as snap.Arena does; the zero Slab is
// an empty one.
type Slab struct {
	muxes   snap.Arena[Mux]
	packets snap.Arena[traffic.Packet]
}

// NewSlab returns storage for that many MUXes and queued packets in total.
func NewSlab(muxes, packets int) Slab {
	return Slab{muxes: snap.NewArena[Mux](muxes), packets: snap.NewArena[traffic.Packet](packets)}
}

// New makes a MUX: line's server at capacity c on the link from→to, with
// room for routed packets queued before the queue grows — pass the number
// of flows routed through the connection. It takes the record and the
// owner-table slot of the MUX its engine retired last (Retire), whose
// queue window it keeps, and the slab's next record only when none is
// left.
func (sl *Slab) New(line *Line, c float64, from, to, routed int) *Mux {
	h, slot, ok := line.eng.Reclaim(des.KindMuxDone)
	if !ok {
		return sl.carve(line, c, from, to, routed)
	}
	m := h.(*Mux)
	*m = Mux{q: m.q[:0]}
	m.set(line, c, from, to)
	m.slot = line.eng.Own(des.KindMuxDone, slot, m)
	if cap(m.q) < routed {
		m.q = sl.packets.Take(routed)[:0]
	}
	return m
}

// carve makes the slab's next MUX as New would, registered in the next slot
// of its engine's owner table.
func (sl *Slab) carve(line *Line, c float64, from, to, routed int) *Mux {
	m := sl.muxes.One().init(line, c, from, to)
	m.q = sl.packets.Take(routed)[:0]
	return m
}

// Restore makes the slab's next MUX as New would, its queue carved to the
// larger of its restored length and routed, and overwrites its mutable
// state from the open record. It fails the reader on a flow id outside
// [0, k) and on an idle server with packets queued — a state no
// work-conserving MUX is in, whose queue nothing would serve.
// The transmit-completion event, if one was pending, is the engine's to
// re-insert: the MUX registers in the next slot of its owner table, never
// in a retired one's, so a restore's i-th MUX holds slot i.
func (sl *Slab) Restore(r *snap.Reader, line *Line, c float64, from, to, routed int) *Mux {
	n := r.Count(traffic.PacketSnapBytes)
	m := sl.carve(line, c, from, to, max(n, routed))
	m.q = m.q[:n]
	for i := range m.q {
		m.q[i] = traffic.RestorePacket(r, line.k)
	}
	busy := r.Bool()
	if busy {
		m.cur = traffic.RestorePacket(r, line.k)
	}
	if !busy && n > 0 && r.Err() == nil {
		r.Fail(fmt.Errorf("mux: snapshot idle MUX with %d packets queued", n))
	}
	return m
}
