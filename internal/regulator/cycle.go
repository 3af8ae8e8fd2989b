package regulator

import (
	"cmp"
	"slices"

	"repro/internal/des"
	"repro/internal/snap"
)

// Cycle is one duty-cycle schedule: the on/off clock of every (σ, ρ, λ)
// regulator that shares a phase offset, a working period W and a vacation
// V on one engine. Anchored at simulation time zero, the gate opens at
// offset + k·(W+V) and closes W later, for ever.
//
// The clock owns the gate and the two self-rearming edge events; a
// regulator follows it (SRL.Follow), reads the gate from it, and costs the
// engine nothing while its queue is empty. Only a regulator that holds a
// packet behind a shut gate puts itself on the waiting list, which the
// on-edge serves in follow order — the order the regulators' own on-edge
// events fired in when each carried its own timer, since equal (at, prio)
// ties break by scheduling order. The clock ticks whether or not anyone
// waits or follows, so an engine has duty-cycle events at the instants the
// schedule prescribes and nowhere else.
type Cycle struct {
	eng          *des.Engine
	offset, w, v des.Duration

	on       bool
	ev       des.Event // the pending edge (for Stop; unset in a restored clock)
	slot     uint32    // in the engine's KindSRLOn/KindSRLOff owner table
	nextRank uint64    // follow order: the rank the next follower takes
	waiting  []*SRL    // followers holding a packet behind the shut gate
}

// NewCycle returns the schedule (offset, W, V) on eng, not yet ticking:
// call Start. It panics unless W and V are positive and offset is not
// negative.
func NewCycle(eng *des.Engine, offset, w, v des.Duration) *Cycle {
	return new(Cycle).init(eng, offset, w, v)
}

// init is NewCycle into zeroed storage the caller made (see Slab).
func (c *Cycle) init(eng *des.Engine, offset, w, v des.Duration) *Cycle {
	if offset < 0 || w <= 0 || v <= 0 {
		panic("regulator: cycle requires offset≥0, W>0 and V>0")
	}
	c.eng, c.offset, c.w, c.v = eng, offset, w, v
	c.slot = eng.Register(des.KindSRLOn, c)
	return c
}

// Fire is the clock's edge: des.KindSRLOn opens the gate, des.KindSRLOff
// shuts it, and each arms the other.
func (c *Cycle) Fire(kind uint16) {
	if kind == des.KindSRLOff {
		c.on = false
		c.ev = c.eng.ScheduleInKind(c.v, des.KindSRLOn, c.slot)
		return
	}
	c.on = true
	// Wake before re-arming: a follower's transmission started here was
	// scheduled before its own off-edge when it carried its own timer.
	c.wake()
	c.ev = c.eng.ScheduleInKind(c.w, des.KindSRLOff, c.slot)
}

// Start enters the state the schedule prescribes for Now — as if the clock
// had been ticking since time zero — and arms the next edge. A clock is
// started once.
func (c *Cycle) Start() {
	now, p := c.eng.Now(), c.w+c.v
	switch pos := (now - c.offset) % p; {
	case now <= c.offset:
		// Before the first working period.
		c.ev = c.eng.ScheduleKind(c.offset, des.KindSRLOn, c.slot)
	case pos < c.w:
		// Inside a working period: finish it.
		c.on = true
		c.ev = c.eng.ScheduleInKind(c.w-pos, des.KindSRLOff, c.slot)
	default:
		// Inside a vacation.
		c.ev = c.eng.ScheduleInKind(p-pos, des.KindSRLOn, c.slot)
	}
}

// Stop halts the clock, leaving the gate as it stands.
func (c *Cycle) Stop() {
	c.eng.Cancel(c.ev)
	c.ev = des.Event{}
}

// wake serves the waiting followers in follow order.
func (c *Cycle) wake() {
	ws := c.waiting
	slices.SortFunc(ws, func(a, b *SRL) int { return cmp.Compare(a.rank, b.rank) })
	for i, r := range ws {
		r.waiting = false
		r.serve()
		ws[i] = nil
	}
	c.waiting = ws[:0]
}

// unwait takes r off the waiting list.
func (c *Cycle) unwait(r *SRL) {
	i := slices.Index(c.waiting, r)
	last := len(c.waiting) - 1
	c.waiting[i] = c.waiting[last]
	c.waiting[last] = nil
	c.waiting = c.waiting[:last]
}

// Snapshot appends the clock's mutable state to the open record. The
// waiting list is not written: each follower's record carries its waiting
// bit, and Rejoin reconstructs the list.
func (c *Cycle) Snapshot(w *snap.Writer) {
	w.Bool(c.on)
	w.U64(c.nextRank)
}
