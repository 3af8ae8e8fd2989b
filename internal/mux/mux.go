// Package mux implements the paper's general multiplexer (MUX): the
// work-conserving server at each end host that merges the K regulated
// input flows onto one output link of capacity C.
//
// "General" means the delay bounds of the paper hold for *any* service
// order. The package offers two disciplines, both non-preemptive and
// work-conserving: the adversary (LIFO, which realises the bound) and the
// ablation (FIFO, which shows how far below it an ordinary queue stays).
// Both are read off one queue in arrival order: LIFO takes its newest
// end, FIFO its oldest.
package mux

import (
	"repro/internal/des"
	"repro/internal/snap"
	"repro/internal/traffic"
)

// Discipline selects the service order of a general MUX.
type Discipline int

// Available service disciplines. LIFO is the zero value: the paper's
// "general MUX" explicitly allows a packet of one flow to have priority
// over a packet of another, and its worst-case delay — a packet waiting
// out an entire busy period, Σσᵢ/(C−Σρᵢ) — is realised by last-come-
// first-served order (the earliest packet of a busy period leaves last).
// FIFO's worst case is only Σσᵢ/C; it is the ablation.
const (
	LIFO Discipline = iota // newest arrival first (busy-period adversary)
	FIFO                   // global arrival order
)

// Link is where a MUX puts a packet it has served: onto the output link
// from host from to host to, whose propagation delay lat the Link priced
// when the MUX was made (Latency). The link's ends and its delay are fixed
// for the MUX's life, so the price is paid once per connection, not per
// packet. A session's fabric is one.
type Link interface {
	Latency(from, to int) des.Duration
	Carry(from, to int, lat des.Duration, p traffic.Packet)
}

// Line is what every MUX on one engine shares: the engine its transmit
// completions run in, the service order, the declared input flow count
// (validation only), the link a served packet leaves on, and the packet
// pool a queue grows into past the room a Slab carved it. Each MUX points
// at its engine's Line and keeps only what differs between connections.
type Line struct {
	eng  *des.Engine
	d    Discipline
	k    int
	out  Link
	pool snap.Arena[traffic.Packet]
	// drained hears of a MUX Retire left serving as its queue runs dry,
	// just before it retires (OnDrained).
	drained Drainer
}

// Drainer hears of each MUX on a Line that Retire left serving as it runs
// dry, just before its record goes back to the engine: a connection table
// that still holds it takes it out.
type Drainer interface{ Drained(m *Mux) }

// NewLine returns the shared part of MUXes in eng with k input flows,
// serving in order d and sending into out.
func NewLine(eng *des.Engine, k int, d Discipline, out Link) *Line {
	if k <= 0 {
		panic("mux: need at least one input flow")
	}
	if d != LIFO && d != FIFO {
		panic("mux: unknown discipline")
	}
	if out == nil {
		panic("mux: nil output")
	}
	return &Line{eng: eng, d: d, k: k, out: out}
}

// OnDrained makes d the line's Drainer.
func (l *Line) OnDrained(d Drainer) { l.drained = d }

// Pool returns the line's packet pool, which the engine's regulators share
// (regulator.NewSlab). It makes its first chunk on its first window, so a
// session that is built but not run holds none.
func (l *Line) Pool() *snap.Arena[traffic.Packet] { return &l.pool }

// Mux is a work-conserving server at rate C over K input flows.
//
// It holds one queue, in arrival order, whatever the flow: LIFO serves
// its newest end and FIFO its oldest. Per-flow queues would serve the
// same order — a flow's queue holds its packets in arrival order, so the
// newest of the per-flow tails is the globally newest packet and the
// oldest of the heads the globally oldest — at the price of a queue table
// per MUX, and a host's MUX sees the few groups routed through its
// connection, rarely a second packet at once. A MUX made in a Slab starts
// with room for one packet per flow routed through it.
//
// What every MUX on an engine has in common lives in its Line; the record
// itself is the connection — its capacity, queue, the packet in
// transmission, the link's two ends and its priced delay.
type Mux struct {
	line *Line
	c    float64          // bits/second
	q    []traffic.Packet // queued packets in arrival order, from head on
	// cur is the packet in transmission; its Flow is idle while the server
	// is idle (a queued packet's flow is never negative), so the record
	// needs no busy flag.
	cur  traffic.Packet
	lat  des.Duration // the output link's propagation delay, priced by init
	head int32
	// slot is the MUX's place in the engine's KindMuxDone owner table; its
	// top bit, retiring, marks a MUX Retire took out of service while it
	// transmitted, which retires as its queue runs dry.
	slot uint32
	from int32 // the output link's ends, host ids
	to   int32
}

// idle is cur.Flow while the server transmits nothing.
const idle = -1

// retiring is the top bit of Mux.slot: no owner table reaches 2³¹ slots.
const retiring = 1 << 31

// New returns a MUX with k input flows at capacity c bits/second, on a
// Line of its own.
func New(eng *des.Engine, k int, c float64, d Discipline, out func(traffic.Packet)) *Mux {
	if out == nil {
		panic("mux: nil output")
	}
	return new(Mux).init(NewLine(eng, k, d, sinkLink(out)), c, 0, 0)
}

// sinkLink is a Link that ignores the ends and has no delay: New's output.
type sinkLink func(traffic.Packet)

func (f sinkLink) Latency(_, _ int) des.Duration { return 0 }

func (f sinkLink) Carry(_, _ int, _ des.Duration, p traffic.Packet) { f(p) }

// init is New into zeroed storage the caller made (see Slab), shared by
// creation and restore: the MUX serves the link from→to of line, prices
// that link once, and registers as the owner of its transmit completions.
func (m *Mux) init(line *Line, c float64, from, to int) *Mux {
	m.set(line, c, from, to)
	m.slot = line.eng.Register(des.KindMuxDone, m)
	return m
}

// set gives a MUX record its connection: the link from→to of line, priced
// once, at capacity c, with nothing in transmission.
func (m *Mux) set(line *Line, c float64, from, to int) {
	if c <= 0 {
		panic("mux: capacity must be positive")
	}
	m.line, m.c, m.from, m.to = line, c, int32(from), int32(to)
	m.lat = line.out.Latency(from, to)
	m.cur.Flow = idle
}

// Retire takes the MUX out of service for good: its record and its
// owner-table slot go back to its engine (des.Engine.Retire) for the next
// MUX a Slab makes there, as soon as no pending completion names them — at
// once when the MUX is idle, else when the packets it holds have left and
// its line's drained hook has heard of it. Until then Keep puts it back in
// service. Nothing may enqueue into a MUX Retire left serving.
func (m *Mux) Retire() {
	if m.Busy() {
		m.slot |= retiring
		return
	}
	m.retire()
}

// Keep puts a MUX that Retire left serving back in service.
func (m *Mux) Keep() { m.slot &^= retiring }

// Slot returns the MUX's slot in its engine's KindMuxDone owner table.
func (m *Mux) Slot() uint32 { return m.slot &^ retiring }

// retire hands an idle MUX's record, its queue window emptied, and its
// slot to the engine.
func (m *Mux) retire() {
	m.slot &^= retiring
	m.q, m.head = m.q[:0], 0
	m.line.eng.Retire(des.KindMuxDone, m.slot)
}

// Fire is the transmit completion (des.KindMuxDone): the packet in
// transmission leaves on the priced link, and service moves on.
func (m *Mux) Fire(uint16) {
	m.line.out.Carry(int(m.from), int(m.to), m.lat, m.cur)
	m.serve()
}

// Busy reports whether a packet is in transmission: the MUX's one
// pending completion is for it.
func (m *Mux) Busy() bool { return m.cur.Flow != idle }

// Ends returns the host ids of the MUX's output link.
func (m *Mux) Ends() (from, to int) { return int(m.from), int(m.to) }

// Len returns the packets queued across all flows (excluding the packet
// in transmission).
func (m *Mux) Len() int { return len(m.q) - int(m.head) }

// Enqueue implements the input side: the packet joins the queue and
// service starts if the server is idle. It panics on an out-of-range flow
// index (p.Flow), which always indicates a wiring bug in the host model.
func (m *Mux) Enqueue(p traffic.Packet) {
	if p.Flow < 0 || p.Flow >= m.line.k {
		panic("mux: packet flow index out of range")
	}
	if n := len(m.q); n == cap(m.q) {
		// Full. At least half served (FIFO only: LIFO keeps head at 0),
		// the queue slides to the front; otherwise it moves to a window of
		// the line's pool twice its size, and the window it leaves stays
		// with its chunk.
		live := m.q[m.head:]
		if n == 0 || int(m.head)*2 < n {
			m.q = m.line.pool.Take(max(2*n, 1))
		}
		m.q = append(m.q[:0], live...)
		m.head = 0
	}
	m.q = append(m.q, p)
	if !m.Busy() {
		m.serve()
	}
}

// serve starts transmitting the next packet — LIFO's newest, FIFO's
// oldest — or idles the server when none is queued.
func (m *Mux) serve() {
	if int(m.head) == len(m.q) {
		m.cur.Flow = idle
		if m.slot&retiring != 0 {
			if d := m.line.drained; d != nil {
				d.Drained(m)
			}
			m.retire()
		}
		return
	}
	var p traffic.Packet
	l := m.line
	if l.d == LIFO {
		last := len(m.q) - 1
		p = m.q[last]
		m.q = m.q[:last]
	} else if p = m.q[m.head]; int(m.head)+1 == len(m.q) {
		m.q, m.head = m.q[:0], 0 // emptied: rewind for free
	} else {
		m.head++
	}
	m.cur = p
	l.eng.ScheduleInKind(des.Seconds(p.Size/m.c), des.KindMuxDone, m.slot&^retiring)
}
