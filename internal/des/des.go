// Package des implements a deterministic discrete-event simulation engine.
//
// It is the substrate that replaces ns-2 in this reproduction: every
// simulated component (traffic source, regulator, multiplexer, link, router,
// overlay host) schedules its events on a single Engine. Time is an int64
// nanosecond count, so runs are bit-for-bit reproducible — no floating-point
// clock drift — and events that fire at the same instant are executed in
// scheduling order (a monotone sequence number breaks ties).
//
// The event queue is a hierarchical timing wheel (see wheel.go) with an
// overflow heap for events beyond the wheel horizon, backed by an intrusive
// free list of event records. Steady-state scheduling allocates nothing:
// a fired or reaped event's record is recycled for the next Schedule call.
//
// Events are data: a record is (at, prio, seq, kind, arg) and nothing
// else. kind names a registered event family (snapshot.go) and arg which of
// its owners the event is for — a component's slot, a flow, a host, a pool
// node. Each engine keeps one owner table per kind family (the kinds one
// owner fires share it), and firing an event is owners[kind][arg].Fire(kind).
// A pooled family's records are its one owner's (a flight pool's nodes):
// the pool registers once (OwnPool), takes no table slot per record, and
// firing is pool.FireArg(kind, arg). An owner registers once, when it is
// made, and schedules itself by its slot, so making a component binds no
// callback, a session of a million components holds no closure per
// component, and a checkpoint restore re-inserts each serialized record
// as it stands. An owner torn down mid-run retires (Retire) once no
// pending event names it, and the next owner of its family takes its slot
// back (Reclaim, Own), so a table holds what is in use, not all that ever
// was. Schedule still takes a
// plain func for the few callers that keep one (tests, a greedy source): it
// parks the func in the engine's closure slab — the owner table of
// KindNone, whose slots are recycled as their funcs fire.
package des

import (
	"fmt"
	"slices"
)

// Time is a point in simulated time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of simulated time, in nanoseconds.
type Duration = Time

// Common durations, mirroring package time for readability.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds converts a floating-point number of seconds to a Time.
func Seconds(s float64) Time { return Time(s * float64(Second)) }

// Millis converts a floating-point number of milliseconds to a Time.
func Millis(ms float64) Time { return Time(ms * float64(Millisecond)) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis reports t as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String formats the time in milliseconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fms", t.Millis()) }

// event is the pooled queue record. Records are recycled through the
// engine's free list after firing or reaping; gen distinguishes the
// incarnations so stale handles become harmless no-ops.
//
// Events fire in (at, prio, seq) order. prio is the event's scheduling
// time: Schedule stamps it with Now, which is non-decreasing in seq, so
// for a purely local engine the order is identical to the seed's (at,
// seq). Its purpose is cross-shard merging (shard.go): a message posted at
// sender time t but materialised in the destination engine at a later
// epoch barrier carries prio = t, which restores exactly the tie-break a
// sequential run would have given an event scheduled at t — without it,
// systematic same-timestamp ties (burst cascades phase-locked on the
// serialisation grid) would resolve by drain order instead of send order.
//
// kind and arg are the whole of what fires: the owner at slot arg of the
// kind's owner table.
type event struct {
	at       Time
	prio     Time
	seq      uint64
	next     *event // bucket chain / free-list link
	gen      uint32
	kind     uint16
	canceled bool
	arg      uint32
}

// eventLess is the engine's total firing order (seq is unique, so the
// order is strict).
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// eventCmp is eventLess as a three-way comparison for slices.SortFunc.
func eventCmp(a, b *event) int {
	switch {
	case eventLess(a, b):
		return -1
	case a == b:
		return 0
	}
	return 1
}

// Handler is an owner: what an event fires. Fire receives the kind the
// event was scheduled under, so one component can own several event
// families (a duty-cycle clock's on- and off-edges) and register once.
type Handler interface{ Fire(kind uint16) }

// Pool is the one owner of a pooled family (snapshot.go): an event's arg
// names one of the pool's own records, which FireArg fires, and Holds
// reports whether arg names one the pool has handed out.
type Pool interface {
	FireArg(kind uint16, arg uint32)
	Holds(arg uint32) bool
}

// funcHandler is a closure-slab entry. A func value is pointer-shaped, so
// converting one to a Handler allocates nothing.
type funcHandler func()

func (f funcHandler) Fire(uint16) { f() }

// Event is a cancelable handle to a scheduled event. It is a small
// value (copyable, comparable); the zero Event is valid and never pending.
// A handle goes stale once its event fires or its canceled record is
// reaped — Cancel and the accessors treat stale handles as no-ops.
type Event struct {
	ev  *event
	gen uint32
}

// Pending reports whether the event is still scheduled to fire.
func (h Event) Pending() bool {
	return h.ev != nil && h.ev.gen == h.gen && !h.ev.canceled
}

// Engine is a single-threaded discrete-event executor. The zero value is
// ready to use. Engines are not safe for concurrent use; the simulation
// model is strictly sequential, which is what makes it deterministic.
// (Run one engine per goroutine for parallel sweeps.)
type Engine struct {
	now      Time
	seq      uint64
	executed uint64
	byKind   [NumKinds]uint64 // executed, by kind
	running  bool
	pending  int

	// Timing-wheel state (wheel.go). ready is the sorted run of events at
	// or before curTick; readyHead is its consumed prefix.
	curTick   int64
	ready     []*event
	readyHead int
	levels    [numLevels]wheelLevel
	overflow  overflowHeap

	free     *event // recycled event records
	poolSize int    // total records ever allocated (diagnostics)
	pdqRuns  int    // ready runs too fragmented to merge (diagnostics)

	owners    [NumKinds][]Handler      // by table (kinds[kind].table), then slot; nil is a hole
	pools     [NumKinds]Pool           // by table: the owner of a pooled family
	freeFuncs []uint32                 // closure-slab slots free for reuse
	retired   [NumKinds][]retiredOwner // by table: owners Retire emptied a slot of, for Reclaim
}

// retiredOwner is an owner taken out of its table, and the slot it held.
type retiredOwner struct {
	h    Handler
	slot uint32
}

// New returns a fresh engine at time zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// ExecutedByKind reports how many events have run so far, by kind
// (closures count under KindNone).
func (e *Engine) ExecutedByKind() [NumKinds]uint64 { return e.byKind }

// When the free list runs dry alloc makes a block of records an eighth as
// large as the pool already is, from eventBlock up to maxEventBlock: one
// allocation per block, not one per record, as a burst grows the pool,
// and a block's unused tail stays small beside what the pool holds.
const (
	eventBlock    = 64
	maxEventBlock = 1024
)

func (e *Engine) alloc() *event {
	if e.free == nil {
		e.Reserve(min(max(e.poolSize/8, eventBlock), maxEventBlock))
	}
	ev := e.free
	e.free = ev.next
	ev.next = nil
	ev.canceled = false
	return ev
}

// Reserve adds n records to the event pool in one block, so the next n
// events scheduled allocate nothing: a restore reserves the events its
// checkpoint holds before it re-inserts them.
func (e *Engine) Reserve(n int) {
	if n <= 0 {
		return
	}
	blk := make([]event, n)
	for i := range n - 1 {
		blk[i].next = &blk[i+1]
	}
	blk[n-1].next = e.free
	e.free = &blk[0]
	e.poolSize += n
}

// release recycles a record after it fired or its cancellation was reaped.
// Bumping gen invalidates every outstanding handle to this incarnation.
func (e *Engine) release(ev *event) {
	ev.gen++
	ev.next = e.free
	e.free = ev
}

// Register appends h to the owner table of kind's family and returns the
// slot the owner's events name as their arg. It never hands out a slot
// Retire emptied: an owner made in place of a retired one takes that one's
// slot back with Own (Reclaim).
func (e *Engine) Register(kind uint16, h Handler) uint32 {
	return e.Own(kind, uint32(len(e.owners[tableOf(kind)])), h)
}

// Own puts h at slot of the owner table of kind's family — a flow's
// source at the flow, a host at its id, a new component at the slot of the
// retired one whose record it reuses (Reclaim) — growing the table as
// needed, and returns slot. Slots it skips stay holes.
func (e *Engine) Own(kind uint16, slot uint32, h Handler) uint32 {
	table := tableOf(kind)
	if kinds[table].pool {
		panic(fmt.Sprintf("des: kind %d is pooled: its pool owns it (OwnPool)", kind))
	}
	t := &e.owners[table]
	if n := int(slot) + 1; n > len(*t) {
		*t = slices.Grow(*t, n-len(*t))[:n]
	}
	(*t)[slot] = h
	return slot
}

// Retire takes the owner at slot out of the owner table of kind's family,
// leaving a hole, and keeps it with its slot for Reclaim: an owner no
// pending event names any more — a component torn down mid-run — hands its
// record and its slot to the next one of its family. An event cancelled
// before the retire may still sit in the wheel naming the slot; it is
// reaped unfired whoever owns the slot by then.
func (e *Engine) Retire(kind uint16, slot uint32) {
	table := tableOf(kind)
	t := e.owners[table]
	if int(slot) >= len(t) || t[slot] == nil {
		panic(fmt.Sprintf("des: retiring slot %d of the %s table, which holds no owner", slot, kinds[table].name))
	}
	e.retired[table] = append(e.retired[table], retiredOwner{t[slot], slot})
	t[slot] = nil
}

// Reclaim returns the owner of kind's family retired last and the slot it
// held, still a hole, and forgets it; ok is false when none is left. The
// caller remakes the owner in place and puts it back with Own.
func (e *Engine) Reclaim(kind uint16) (h Handler, slot uint32, ok bool) {
	rs := &e.retired[tableOf(kind)]
	n := len(*rs) - 1
	if n < 0 {
		return nil, 0, false
	}
	r := (*rs)[n]
	(*rs)[n] = retiredOwner{}
	*rs = (*rs)[:n]
	return r.h, r.slot, true
}

// OwnPool makes p the owner of every event of kind's family, which must be
// a pooled one.
func (e *Engine) OwnPool(kind uint16, p Pool) {
	table := tableOf(kind)
	if !kinds[table].pool {
		panic(fmt.Sprintf("des: kind %d is not a pooled family", kind))
	}
	e.pools[table] = p
}

// Grow makes room in the owner table of kind's family for n more owners,
// so registering them allocates nothing.
func (e *Engine) Grow(kind uint16, n int) {
	t := &e.owners[tableOf(kind)]
	*t = slices.Grow(*t, n)
}

// GrowReady makes room in the ready run for n more events, allocating once.
func (e *Engine) GrowReady(n int) { e.ready = slices.Grow(e.ready, n) }

// Owners returns the owner table of kind's family, indexed by slot; a hole
// is nil. A retired or unregistered kind has none, and so has a pooled
// one. The caller must not modify it.
func (e *Engine) Owners(kind uint16) []Handler {
	if kind >= NumKinds || kinds[kind].name == "" {
		return nil
	}
	return e.owners[kinds[kind].table]
}

// tableOf is kind's owner table, panicking on a retired or unregistered
// kind: scheduling one is a model bug.
func tableOf(kind uint16) uint16 {
	if kind >= NumKinds || kinds[kind].name == "" {
		panic(fmt.Sprintf("des: kind %d has no owner table", kind))
	}
	return kinds[kind].table
}

// Schedule enqueues fn to run at absolute time at. Scheduling in the past
// (before Now) panics: it always indicates a model bug, and silently
// reordering time would destroy the causality the simulation depends on.
func (e *Engine) Schedule(at Time, fn func()) Event {
	return e.scheduleFunc(at, e.now, fn)
}

// scheduleFunc parks fn in a closure-slab slot and schedules it there.
func (e *Engine) scheduleFunc(at, prio Time, fn func()) Event {
	if fn == nil {
		panic("des: scheduling nil func")
	}
	t := &e.owners[KindNone]
	slot := uint32(len(*t))
	if n := len(e.freeFuncs); n > 0 {
		slot, e.freeFuncs = e.freeFuncs[n-1], e.freeFuncs[:n-1]
		(*t)[slot] = funcHandler(fn)
	} else {
		*t = append(*t, funcHandler(fn))
	}
	return e.SchedulePrioKind(at, prio, KindNone, slot)
}

// freeFunc empties closure-slab slot and recycles it.
func (e *Engine) freeFunc(slot uint32) {
	e.owners[KindNone][slot] = nil
	e.freeFuncs = append(e.freeFuncs, slot)
}

// SchedulePrioKind enqueues an event of kind for the owner at slot arg of
// its table, to fire at absolute time at with an explicit tie-break
// priority. Among events firing at the same instant, lower prio fires
// first (seq still breaks exact prio ties); everything but the shard
// coordinator and a restore stamps prio with Now through the other
// Schedule forms.
func (e *Engine) SchedulePrioKind(at, prio Time, kind uint16, arg uint32) Event {
	if at < e.now {
		panic(fmt.Sprintf("des: scheduling at %v before now %v", at, e.now))
	}
	if kind >= NumKinds || kinds[kind].name == "" {
		panic(fmt.Sprintf("des: scheduling kind %d, which has no owner table", kind))
	}
	ev := e.alloc()
	ev.at = at
	ev.prio = prio
	ev.seq = e.seq
	ev.kind = kind
	ev.arg = arg
	e.seq++
	e.pending++
	e.insert(ev)
	return Event{ev: ev, gen: ev.gen}
}

// ScheduleIn enqueues fn to run d nanoseconds after Now. Negative d panics.
func (e *Engine) ScheduleIn(d Duration, fn func()) Event {
	return e.Schedule(e.now+d, fn)
}

// ScheduleKind is SchedulePrioKind stamped with Now.
func (e *Engine) ScheduleKind(at Time, kind uint16, arg uint32) Event {
	return e.SchedulePrioKind(at, e.now, kind, arg)
}

// ScheduleInKind is ScheduleKind d nanoseconds after Now.
func (e *Engine) ScheduleInKind(d Duration, kind uint16, arg uint32) Event {
	return e.SchedulePrioKind(e.now+d, e.now, kind, arg)
}

// Cancel prevents a scheduled event from firing. Canceling a stale or zero
// handle (already fired, already canceled and reaped, or never scheduled)
// is a no-op. Cancellation is lazy: the record stays in the wheel until its
// bucket expires, but it no longer counts as Pending, and a closure's slot
// is recycled at once.
func (e *Engine) Cancel(h Event) {
	if !h.Pending() {
		return
	}
	h.ev.canceled = true
	if h.ev.kind == KindNone {
		e.freeFunc(h.ev.arg)
	}
	e.pending--
}

// Step executes the single next event. It returns false when the queue is
// empty.
func (e *Engine) Step() bool {
	ev := e.next()
	if ev == nil {
		return false
	}
	e.exec(ev)
	return true
}

// exec fires an event already consumed from the ready run: the owner at
// slot arg of the kind's table.
func (e *Engine) exec(ev *event) {
	e.now = ev.at
	e.executed++
	e.byKind[ev.kind]++
	e.pending--
	kind, arg := ev.kind, ev.arg
	e.release(ev)
	k := &kinds[kind]
	if k.pool {
		e.pools[k.table].FireArg(kind, arg)
		return
	}
	h := e.owners[k.table][arg]
	if kind == KindNone {
		e.freeFunc(arg)
	}
	h.Fire(kind)
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with firing time <= deadline, then advances the
// clock to exactly deadline. Events scheduled beyond the deadline remain
// queued.
func (e *Engine) RunUntil(deadline Time) {
	for {
		nxt := e.peek()
		if nxt == nil || nxt.at > deadline {
			break
		}
		// Consume the peeked event directly rather than via Step, which
		// would redo the ready-run fill.
		e.ready[e.readyHead] = nil
		e.readyHead++
		e.exec(nxt)
	}
	if e.now < deadline {
		e.now = deadline
	}
}
