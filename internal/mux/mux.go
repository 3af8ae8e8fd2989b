// Package mux implements the paper's general multiplexer (MUX): the
// work-conserving server at each end host that merges the K regulated
// input flows onto one output link of capacity C.
//
// "General" means the delay bounds of the paper hold for *any* service
// order. The package offers two disciplines, both non-preemptive and
// work-conserving: the adversary (LIFO, which realises the bound) and the
// ablation (FIFO, which shows how far below it an ordinary queue stays).
package mux

import (
	"repro/internal/des"
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

// String implements fmt.Stringer.
func (d Discipline) String() string {
	switch d {
	case LIFO:
		return "lifo"
	case FIFO:
		return "fifo"
	default:
		return "unknown"
	}
}

type entry struct {
	p   traffic.Packet
	seq uint64
}

// Mux is a work-conserving server at rate C over K per-flow queues.
//
// Queues materialise lazily, per flow that actually arrives: slotFlow
// holds the (ascending) flow ids with live queues, queues/heads the
// matching per-flow FIFOs. A host's MUX sees traffic from the few groups
// routed through its connection, not all K, and a 100k-host session
// builds ~100k MUXes — K-wide dense arrays per MUX (the old layout) cost
// ~16 KB each at K=512, a 1.6 GB wall before the first packet moves.
// Both disciplines scan the slots in flow order, which is exactly the
// dense iteration with the empty flows skipped, so service order is
// unchanged.
type Mux struct {
	eng        *des.Engine
	c          float64 // bits/second
	discipline Discipline
	out        traffic.Sink

	k        int       // declared input flow count (validation only)
	slotFlow []int32   // ascending flow ids with materialised queues
	queues   [][]entry // per-slot FIFO queues, parallel to slotFlow
	heads    []int
	bits     float64
	busy     bool
	seq      uint64
	cur      entry  // entry in transmission (valid while busy)
	snapArg  uint32 // component slot for snapshot event tags
}

// New returns a MUX with k input flows at capacity c bits/second.
func New(eng *des.Engine, k int, c float64, d Discipline, out func(traffic.Packet)) *Mux {
	if out == nil {
		panic("mux: nil output")
	}
	return new(Mux).init(eng, k, c, d, traffic.SinkFunc(out))
}

// init is New into zeroed storage the caller made (see Slab).
func (m *Mux) init(eng *des.Engine, k int, c float64, d Discipline, out traffic.Sink) *Mux {
	if k <= 0 {
		panic("mux: need at least one input flow")
	}
	if c <= 0 {
		panic("mux: capacity must be positive")
	}
	if out == nil {
		panic("mux: nil output")
	}
	m.eng, m.c, m.discipline, m.out, m.k = eng, c, d, out, k
	return m
}

// Fire is the transmit completion (des.KindMuxDone): the packet in
// transmission leaves, and service moves on.
func (m *Mux) Fire(uint16) {
	m.out.Put(m.cur.p)
	m.serve()
}

// Capacity returns the service rate in bits/second.
func (m *Mux) Capacity() float64 { return m.c }

// NumFlows returns the declared number of input flows.
func (m *Mux) NumFlows() int { return m.k }

// Backlog returns the bits queued across all flows (excluding the packet
// in transmission).
func (m *Mux) Backlog() float64 { return m.bits }

// QueueLen returns the packets queued for flow i.
func (m *Mux) QueueLen(i int) int {
	if s := m.findSlot(i); s >= 0 {
		return m.qlen(s)
	}
	return 0
}

// Queued returns how many per-flow queues have materialised and how many
// packets they hold between them (excluding the packet in transmission).
func (m *Mux) Queued() (queues, packets int) {
	for s := range m.queues {
		packets += m.qlen(s)
	}
	return len(m.queues), packets
}

// qlen returns the packets queued in slot s.
func (m *Mux) qlen(s int) int { return len(m.queues[s]) - m.heads[s] }

// findSlot returns flow f's slot index, or -1 when no queue has
// materialised for it.
func (m *Mux) findSlot(f int) int {
	lo, hi := 0, len(m.slotFlow)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(m.slotFlow[mid]) < f {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(m.slotFlow) && int(m.slotFlow[lo]) == f {
		return lo
	}
	return -1
}

// slot returns flow f's slot index, materialising the queue (at its
// sorted position) on first arrival.
func (m *Mux) slot(f int) int {
	lo, hi := 0, len(m.slotFlow)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(m.slotFlow[mid]) < f {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(m.slotFlow) && int(m.slotFlow[lo]) == f {
		return lo
	}
	m.slotFlow = append(m.slotFlow, 0)
	m.queues = append(m.queues, nil)
	m.heads = append(m.heads, 0)
	copy(m.slotFlow[lo+1:], m.slotFlow[lo:])
	copy(m.queues[lo+1:], m.queues[lo:])
	copy(m.heads[lo+1:], m.heads[lo:])
	m.slotFlow[lo] = int32(f)
	m.queues[lo] = nil
	m.heads[lo] = 0
	return lo
}

// Enqueue implements the input side: the packet joins its flow's queue
// (p.Flow indexes the queue) and service starts if the server is idle.
// It panics on an out-of-range flow index, which always indicates a
// wiring bug in the host model.
func (m *Mux) Enqueue(p traffic.Packet) {
	if p.Flow < 0 || p.Flow >= m.k {
		panic("mux: packet flow index out of range")
	}
	s := m.slot(p.Flow)
	m.queues[s] = append(m.queues[s], entry{p: p, seq: m.seq})
	m.seq++
	m.bits += p.Size
	if !m.busy {
		m.serve()
	}
}

// pick selects the next SLOT to serve per the discipline, or -1 when
// idle. For LIFO it returns the slot whose most recent arrival is newest;
// serve pops that slot's tail instead of its head. Any other discipline is
// FIFO: the slot holding the globally earliest arrival (seq breaks ties).
// Slots are sorted by flow id, so each scan visits exactly the non-empty
// flows in the order the dense loop visited all K.
func (m *Mux) pick() int {
	best, bestSeq := -1, uint64(0)
	if m.discipline == LIFO {
		for i := range m.queues {
			if m.qlen(i) == 0 {
				continue
			}
			e := m.queues[i][len(m.queues[i])-1]
			if best < 0 || e.seq > bestSeq {
				best, bestSeq = i, e.seq
			}
		}
		return best
	}
	for i := range m.queues {
		if m.qlen(i) == 0 {
			continue
		}
		e := m.queues[i][m.heads[i]]
		if best < 0 || e.seq < bestSeq {
			best, bestSeq = i, e.seq
		}
	}
	return best
}

func (m *Mux) serve() {
	i := m.pick()
	if i < 0 {
		m.busy = false
		return
	}
	m.busy = true
	var e entry
	if m.discipline == LIFO {
		last := len(m.queues[i]) - 1
		e = m.queues[i][last]
		m.queues[i] = m.queues[i][:last]
	} else {
		e = m.queues[i][m.heads[i]]
		m.heads[i]++
		m.compact(i)
	}
	m.bits -= e.p.Size
	m.cur = e
	m.eng.ScheduleInKind(des.Seconds(e.p.Size/m.c), des.KindMuxDone, m.snapArg, m)
}

func (m *Mux) compact(i int) {
	if m.heads[i] == len(m.queues[i]) {
		// Empty: rewind for free, so a mostly-drained queue never creeps
		// toward the threshold below (and its ~64-entry capacity).
		m.queues[i] = m.queues[i][:0]
		m.heads[i] = 0
		return
	}
	if m.heads[i] > 64 && m.heads[i]*2 >= len(m.queues[i]) {
		n := copy(m.queues[i], m.queues[i][m.heads[i]:])
		m.queues[i] = m.queues[i][:n]
		m.heads[i] = 0
	}
}
