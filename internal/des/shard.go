package des

// Conservative-parallel execution: a Coordinator advances N independent
// Engines (shards) in lock-step epochs bounded by the model's conservative
// lookahead — the minimum simulated delay any cross-shard interaction can
// have. Within an epoch every shard executes only events that fire strictly
// before its bound, so no shard can observe an effect another shard has not
// yet produced: a cross-shard message sent at local time t arrives at
// t + d with d >= la[src][dst], i.e. always at or beyond the receiver's
// current bound, and it is handed to the destination at an epoch barrier
// before the epoch that fires it.
//
// Epoch bounds are per-shard, derived from the per-(src, dst) lookahead
// matrix by an LBTS (lower bound on time stamp) fixpoint: shard i may
// advance to the earliest instant any other shard could still affect it,
//
//	E_j    = min(next_j, min_k(E_k + la[k][j]))   (the fixpoint)
//	bound_i = min_{j != i}(E_j + la[j][i])
//
// which degenerates to the classic single global-min window when the
// matrix is uniform, and opens strictly wider windows for distant shard
// pairs when it is not. Over one engine the bound is unconstrained: Run
// is then RunUntil with barrier actions, one inline epoch per stretch
// between barriers — the sequential engine is the one-shard case, not a
// separate code path.
//
// Determinism contract. A sharded run must be bit-stable for a fixed shard
// count regardless of OS scheduling or how the run is cut into epochs.
// Three mechanisms guarantee it:
//
//  1. Each shard's engine is strictly sequential and only the runner that
//     owns it touches it during an epoch (which goroutine that is, is not
//     an input to any order).
//  2. Cross-shard messages travel as flat pooled records through
//     double-buffered per-(src, dst) mailboxes under the explicit total
//     order (at, lamport, srcShard, seq) — arrival time, the sender's
//     clock at send, the sending shard, and a per-sender monotone counter.
//     Every per-record step runs on the runner that owns the shard it
//     belongs to: a source's runner sorts each of its outboxes when its
//     epoch ends; at the barrier the coordinator seals them, swapping each
//     pair's two buffers (headers only); a destination's runner, when its
//     epoch starts, merges its sealed mailboxes into its sorted pending
//     buffer and releases into its engine only the prefix firing inside
//     the window. Releasing exactly the records an epoch can fire (in
//     sorted order) makes destination-engine tie-breaks (its internal seq)
//     reproduce the total order for ANY epoch schedule: without the
//     bounded pending release, per-pair windows could materialise two
//     exact (at, lamport) ties in different batches and invert their
//     (srcShard, seq) order.
//  3. Barrier callbacks (the session control plane) run on the
//     coordinator goroutine while every engine is quiesced at exactly the
//     barrier time, before any same-time events execute: control actions
//     win every same-timestamp tie, at every shard count.
//
// The coordinator's serial section between epochs does only what needs
// every shard — seal, the per-shard next events, the fixpoint, the live
// flags and the gates: O(shards²) per epoch, nothing per record.
//
// Epochs are demand-driven: the fixpoint seeds from each shard's next
// event (including pending cross-shard arrivals), so idle stretches cost
// one barrier instead of thousands, and the shard holding the global
// minimum always makes progress (its bound exceeds its next event because
// every lookahead entry is positive).

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"time"
)

// maxTime is the saturation point for lookahead arithmetic: "no cross-shard
// path" is represented as an effectively infinite delay.
const maxTime = Time(1)<<62 - 1

// minTime precedes every instant a barrier source can yield.
const minTime = Time(math.MinInt64)

// NextAt reports the firing time of the earliest pending event, or false
// when the queue is empty.
func (e *Engine) NextAt() (Time, bool) {
	ev := e.peek()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// RunBefore executes every event with firing time strictly before bound,
// then advances the clock to exactly bound (never backward). It is the
// epoch step of conservative-parallel execution: unlike RunUntil it leaves
// events at the bound itself unfired, so a barrier action at the bound
// runs before same-time events.
func (e *Engine) RunBefore(bound Time) {
	for {
		nxt := e.peek()
		if nxt == nil || nxt.at >= bound {
			break
		}
		e.ready[e.readyHead] = nil
		e.readyHead++
		e.exec(nxt)
	}
	if e.now < bound {
		e.now = bound
	}
}

// rec is one cross-shard event in flight between epochs: a flat mailbox
// record whose leading fields are the explicit merge key. Records live in
// per-(src, dst) mailboxes recycled in place, so posting a boundary packet
// allocates nothing in steady state.
type rec[P any] struct {
	at      Time   // delivery time on the destination engine
	lamport Time   // the sender's clock when the record was posted
	seq     uint64 // per-sender monotone counter
	src     int32  // sending shard
	payload P      // delivered through the OnDeliver hook
}

// recCmp is the total order cross-shard records merge under. seq is unique
// per src, so the order is strict: distinct records never compare equal.
// It reads the records through pointers and stops at the first field that
// differs (almost always at).
func recCmp[P any](a, b *rec[P]) int {
	if a.at != b.at {
		return cmp.Compare(a.at, b.at)
	}
	if a.lamport != b.lamport {
		return cmp.Compare(a.lamport, b.lamport)
	}
	if a.src != b.src {
		return cmp.Compare(a.src, b.src)
	}
	return cmp.Compare(a.seq, b.seq)
}

// sorter sorts one mailbox in place under recCmp through sort.Sort: Less
// compares two slots through pointers, so no record is copied to be
// compared, and each lane sorts through its own sorter, so handing it to
// sort.Sort boxes nothing.
type sorter[P any] struct{ m []rec[P] }

func (s *sorter[P]) Len() int           { return len(s.m) }
func (s *sorter[P]) Less(i, j int) bool { return recCmp(&s.m[i], &s.m[j]) < 0 }
func (s *sorter[P]) Swap(i, j int)      { s.m[i], s.m[j] = s.m[j], s.m[i] }

// lane is one shard's end of the cross-shard hand-off. During an epoch only
// the runner that owns the shard touches it: as a source it appends to out
// and sorts each outbox when its epoch ends; as a destination it folds its
// sealed mailboxes (in) into pend and releases pend's in-window prefix into
// its engine. Between epochs the coordinator swaps mailbox headers (seal)
// and reads heads; the epoch gates order the two. The mailboxes are double
// buffered: lane[src].out[dst] and lane[dst].in[src] are the two buffers of
// one pair, and seal swaps them, so a runner reads only records sealed at
// the previous barrier while their source fills the other buffer.
type lane[P any] struct {
	out      [][]rec[P] // out[dst]: posted since the last barrier
	in       [][]rec[P] // in[src]: sealed at the last barrier, sorted; emptied by fold
	pend     []rec[P]   // sorted pending records; pend[head:] are unreleased
	head     int
	pool     *dnode[P]  // free delivery nodes
	block    []dnode[P] // delivery nodes carved but not yet used
	seq      uint64     // records this shard posted
	released uint64     // records released into this shard's engine
	sorter   sorter[P]
	_        [64]byte
}

// sortOut sorts each of the lane's outboxes under recCmp.
func (l *lane[P]) sortOut() {
	for _, b := range l.out {
		if len(b) > 1 {
			l.sorter.m = b
			sort.Sort(&l.sorter)
		}
	}
	l.sorter.m = nil
}

// fold merges every sealed inbound mailbox into pend, each by one backward
// linear merge (recCmp is a strict total order, so the result is the one
// sorted sequence), and empties the mailboxes for their sources to reuse
// (slots zeroed so payloads are not pinned by high-water-mark slots). The
// released prefix pend[:head] is compacted away only once it is at least
// as long as what is left, or growth would copy it anyway, so a record is
// moved O(1) times by compaction however long it waits.
func (l *lane[P]) fold() {
	for src, b := range l.in {
		if len(b) == 0 {
			continue
		}
		pq, h := l.pend, l.head
		if h > 0 && (2*h >= len(pq) || len(pq)+len(b) > cap(pq)) {
			m := copy(pq, pq[h:])
			clear(pq[m:])
			pq, h, l.head = pq[:m], 0, 0
		}
		i, old := len(pq)-1, pq
		outgrown := len(pq)+len(b) > cap(pq)
		pq = slices.Grow(pq, len(b))[:len(pq)+len(b)]
		for j, w := len(b)-1, len(pq)-1; j >= 0; w-- {
			if i >= h && recCmp(&b[j], &pq[i]) < 0 {
				pq[w] = pq[i]
				i--
			} else {
				pq[w] = b[j]
				j--
			}
		}
		l.pend = pq
		clear(b)
		if outgrown && cap(old) > cap(b) {
			// The array pend outgrew goes back to the source in place of
			// the smaller mailbox, which then need not grow itself.
			b = old[:cap(old)]
			clear(b)
		}
		l.in[src] = b[:0]
	}
}

// dnode is a pooled delivery node: the engine-side carrier for a released
// payload record, and the owner its KindCrossShard event fires, registered
// in the destination engine when it is first taken from its lane's block
// (nodes are made nodeBlock at a time). Fire recycles the node
// into its destination lane's free list before invoking the deliver hook —
// so releasing a payload record into an engine allocates nothing in steady
// state, and the node is reusable within the same epoch (re-entrant
// posting touches mailboxes, never pools). A destination's pool is touched
// only by the runner that owns the shard.
type dnode[P any] struct {
	payload P
	next    *dnode[P]
	c       *Coordinator[P]
	dst     int
	slot    uint32 // in the destination engine's KindCrossShard table
}

// nodeBlock is how many delivery nodes a destination carves at once: a
// few dozen are in flight at a time on the §2b cell.
const nodeBlock = 16

// Fire implements Handler.
func (nd *dnode[P]) Fire(uint16) {
	c, p := nd.c, nd.payload
	var zero P
	nd.payload = zero
	l := &c.lanes[nd.dst]
	nd.next = l.pool
	l.pool = nd
	c.deliver(nd.dst, p)
}

// spinBudget is how long a gate is polled before its waiter parks: a few
// typical epochs, so a runner stays hot through a busy stretch and costs
// nothing through an idle one. Parking is correct at any value, so this is
// a constant and not an option.
const spinBudget = 200 * time.Microsecond

// stopSeq on a runner's start gate tells it to exit.
const stopSeq = ^uint64(0)

// gate is one direction of the epoch barrier: a sequence word one side sets
// and the other waits on, padded so a runner's two gates never share a
// cache line. What an epoch publishes (ends, live, mailboxes) is ordered
// by the word alone.
type gate struct {
	seq    atomic.Uint64
	parked atomic.Bool
	wake   chan struct{} // buffered(1): a stale token is a spurious wake
	parks  uint64        // waiter-side tally, read by tests
	_      [64]byte
}

func (g *gate) set(v uint64) {
	g.seq.Store(v)
	if g.parked.Load() {
		select {
		case g.wake <- struct{}{}:
		default:
		}
	}
}

// wait returns the gate's value once it reaches v: spin for the budget,
// then park. The re-check after raising parked closes the race with set
// (sequentially consistent atomics: one side always sees the other).
func (g *gate) wait(v uint64, spin time.Duration) uint64 {
	for start := time.Now(); ; start = time.Now() {
		for i := 1; i&63 != 0 || time.Since(start) < spin; i++ {
			if s := g.seq.Load(); s >= v {
				return s
			}
		}
		g.parked.Store(true)
		if g.seq.Load() < v {
			g.parks++
			<-g.wake
		}
		g.parked.Store(false)
	}
}

// runner is a goroutine that owns shards {i : i mod R = its index} for one
// Run call; index 0 is the coordinator goroutine itself and has no gates.
// The sequence on both gates is the coordinator's epoch count.
type runner struct {
	start, done gate
	posted      bool // owns a live shard this epoch
}

// busyRunners counts the goroutines inside a multi-shard Run, process-wide:
// a coordinator takes extra runners only while the count is below
// GOMAXPROCS, and runs every epoch inline when it is not.
var busyRunners atomic.Int32

// HoldRunners counts n goroutines the caller keeps busy (a sweep pool's
// workers beyond the first) against that budget until release is called, so
// sharded cells under a pool that fills the cores spin up no runners.
func HoldRunners(n int) (release func()) {
	busyRunners.Add(int32(n))
	return func() { busyRunners.Add(int32(-n)) }
}

// ShardAccount is the deterministic per-shard ledger of a coordinator's
// epochs — event counts only, identical at every GOMAXPROCS — since it was
// built (it is not carried through a checkpoint).
type ShardAccount struct {
	Events   []uint64           // events each shard executed
	ByKind   [][NumKinds]uint64 // the same, broken down by kind
	Active   []uint64           // epochs in which each shard had work in its window
	Parallel uint64             // epochs with two or more active shards
}

// Coordinator drives a set of shard engines (one or more) through
// conservative epochs. Build it with NewCoordinatorMatrix, register any
// barrier actions and the payload deliver hook, then call Run — again with
// a later deadline to continue.
type Coordinator[P any] struct {
	engines []*Engine
	la      [][]Time // la[src][dst], the caller's; "no path" is maxTime, the diagonal unread

	deliver func(dst int, payload P) // OnDeliver hook
	lanes   []lane[P]                // per-shard mailboxes, pending buffer, pools

	// epochOn is set while runners execute an epoch. A post outside one
	// (a barrier action, or a caller between Run calls) marks the
	// outboxes unsorted, and the serial section sorts them before it
	// reads their heads.
	epochOn, unsorted bool

	// The barrier source and its last answer, kept until that barrier
	// fires (across Run calls); read is false until the source is asked.
	nextBarrier func() (Time, bool)
	onBarrier   func(Time) // runs with every engine quiesced at the time
	barrier     Time
	have, read  bool
	fired       Time // the last barrier fired; minTime before the first

	runners []runner      // runners 1..R-1 of the current (or last) Run
	spin    time.Duration // spinBudget; tests force parking with 0

	// Reusable per-epoch scratch.
	live    []bool // shard has work inside its window this epoch
	inbound []bool // shard has sealed mailboxes to fold this epoch
	nexts   []Time // per-shard next event time (incl. pending and sealed records)
	eps     []Time // LBTS fixpoint values
	ends    []Time // per-shard epoch bounds
	fixed   []bool // fixpoint "settled" flags
	base    []uint64

	// Diagnostics.
	acct     ShardAccount
	epochs   uint64
	messages uint64 // released before a restore; lanes count the rest
	stallNum uint64 // sum over epochs of (n*max(work) - sum(work))
	stallDen uint64 // sum over epochs of n*max(work)
}

// NewCoordinatorMatrix returns a coordinator using a per-(src, dst)
// lookahead matrix: la[s][d] is the minimum simulated delay of any message
// from shard s to shard d (use a huge value, e.g. 1<<62-1, for pairs with
// no cross-shard path; arithmetic saturates). Every off-diagonal entry
// must be positive: a model with zero minimum cross-shard delay cannot be
// conservatively parallelised. Epoch bounds are per-shard LBTS values over
// the matrix, so distant shard pairs stop over-synchronising each other.
// The coordinator reads la and never writes it, nor its diagonal, so
// coordinators may share one matrix. Engines must be fresh (at time zero,
// nothing fired).
func NewCoordinatorMatrix[P any](engines []*Engine, la [][]Duration) *Coordinator[P] {
	n := len(engines)
	if n == 0 {
		panic("des: coordinator needs at least one engine")
	}
	if len(la) != n {
		panic("des: lookahead matrix must be n×n over the engines")
	}
	for i := range la {
		if len(la[i]) != n {
			panic("des: lookahead matrix must be n×n over the engines")
		}
		for j, d := range la[i] {
			if i != j && d <= 0 {
				panic("des: conservative lookahead must be positive")
			}
		}
	}
	// A lane's mailboxes are its own (its runner writes them); the serial
	// section's per-shard tables are capacity-capped windows of one array
	// per element type.
	lanes := make([]lane[P], n)
	for i := range lanes {
		lanes[i].out = make([][]rec[P], n)
		lanes[i].in = make([][]rec[P], n)
	}
	live, inbound, fixed := thirds[bool](n)
	nexts, eps, ends := thirds[Time](n)
	events, active, base := thirds[uint64](n)
	return &Coordinator[P]{
		engines: engines,
		la:      la,
		lanes:   lanes,
		spin:    spinBudget,
		live:    live,
		inbound: inbound,
		fixed:   fixed,
		acct:    ShardAccount{Events: events, Active: active},
		base:    base,
		nexts:   nexts,
		eps:     eps,
		ends:    ends,
	}
}

// thirds returns three capacity-capped n-element windows of one array.
func thirds[T any](n int) (a, b, c []T) {
	s := make([]T, 3*n)
	return s[:n:n], s[n : 2*n : 2*n], s[2*n:]
}

// Epochs reports how many epochs have been executed.
func (c *Coordinator[P]) Epochs() uint64 { return c.epochs }

// Messages reports how many cross-shard records have been released into
// destination engines.
func (c *Coordinator[P]) Messages() uint64 {
	n := c.messages
	for i := range c.lanes {
		n += c.lanes[i].released
	}
	return n
}

// StallShare reports the measured epoch load imbalance: the fraction of
// per-epoch worker capacity spent waiting at barriers, where each epoch's
// capacity is n shards times the busiest shard's executed-event count.
// 0 = perfectly balanced, →1 = one shard does all the work. It is a
// function of event counts only, so it is deterministic and usable as an
// auto-tuning signal even on a single core.
func (c *Coordinator[P]) StallShare() float64 {
	if c.stallDen == 0 {
		return 0
	}
	return float64(c.stallNum) / float64(c.stallDen)
}

// Account returns the per-shard ledger (read-only: it shares the slices).
func (c *Coordinator[P]) Account() ShardAccount {
	a := c.acct
	a.ByKind = make([][NumKinds]uint64, len(c.engines))
	for i, e := range c.engines {
		a.ByKind[i] = e.ExecutedByKind()
	}
	return a
}

// OnDeliver registers the hook that consumes payload records posted with
// PostPayload: fn runs on shard dst's engine at the record's firing time.
// Must be set before the first PostPayload.
func (c *Coordinator[P]) OnDeliver(fn func(dst int, payload P)) {
	if fn == nil {
		panic("des: nil deliver hook")
	}
	c.deliver = fn
}

// OnBarriers registers global quiesce points, read from a source: next
// reports the earliest barrier not yet fired, or false when none is left.
// At each, after every event before it has executed and before any event
// at it does, fn runs on the coordinator goroutine with all engines
// stopped at exactly that time, and must move the source past it. Run
// asks next only when it needs the next barrier and keeps the answer until
// that barrier fires, across Run calls, so the source can be a cursor into
// an ordered schedule that is never copied; a source that reports none
// left is not asked again. The instants must be ascending and distinct.
// Used for control-plane events that mutate state spanning shards.
func (c *Coordinator[P]) OnBarriers(next func() (Time, bool), fn func(Time)) {
	if next == nil || fn == nil {
		panic("des: nil barrier source or barrier func")
	}
	c.nextBarrier, c.onBarrier = next, fn
	c.read, c.fired = false, minTime
}

// nextBarrierAt reports the next unfired barrier, asking the source on
// first need.
func (c *Coordinator[P]) nextBarrierAt() (Time, bool) {
	if !c.read && c.nextBarrier != nil {
		c.barrier, c.have = c.nextBarrier()
		c.read = true
		if c.have && c.barrier <= c.fired {
			panic(fmt.Sprintf("des: barrier times must be ascending and distinct (%v after %v)", c.barrier, c.fired))
		}
	}
	return c.barrier, c.have
}

// fire quiesces every engine at barrier at and applies it.
func (c *Coordinator[P]) fire(at Time) {
	c.quiesce(at)
	c.onBarrier(at)
	c.fired, c.read = at, false
}

// PostPayload sends a cross-shard payload: the OnDeliver hook will run on
// shard dst's engine at absolute time at with the payload. It must be
// called from src's goroutine while src's epoch is executing (or while all
// shards are quiesced: such posts are sorted by the serial section before
// they are sealed). The record is flat — no closure, no boxing — so
// the steady-state boundary handoff allocates nothing. Posting below the
// pair's conservative lookahead is a model bug — it means the declared
// minimum cross-shard delay was wrong — and panics rather than silently
// corrupting causality.
func (c *Coordinator[P]) PostPayload(src, dst int, at Time, payload P) {
	if c.deliver == nil {
		panic("des: PostPayload without an OnDeliver hook")
	}
	if src == dst {
		panic("des: cross-shard post between a shard and itself; schedule locally instead")
	}
	now := c.engines[src].Now()
	if at-now < c.la[src][dst] {
		panic(fmt.Sprintf("des: cross-shard post %v ahead of shard %d at %v violates lookahead %v (pair %d→%d)",
			at-now, src, now, c.la[src][dst], src, dst))
	}
	if !c.epochOn {
		c.unsorted = true
	}
	l := &c.lanes[src]
	l.seq++
	l.out[dst] = append(l.out[dst], rec[P]{at: at, lamport: now, seq: l.seq, src: int32(src), payload: payload})
}

// seal hands every outbox to its destination: the coordinator swaps the
// headers of each non-empty (src, dst) pair's two buffers, so the records a
// source posted before this barrier become the destination's sealed
// mailbox and the source gets the emptied one back. O(shards²), no record
// moved. Every sealed mailbox was folded by the epoch that followed its
// seal (a destination with one is posted even when nothing is live in its
// window), so the buffer handed back is always empty: the race contract
// rests on that, and seal checks it.
func (c *Coordinator[P]) seal() {
	for dst := range c.lanes {
		in := c.lanes[dst].in
		c.inbound[dst] = false
		for src := range c.lanes {
			if out := &c.lanes[src].out[dst]; len(*out) > 0 {
				if len(in[src]) > 0 {
					panic(fmt.Sprintf("des: mailbox %d→%d sealed again before its destination folded it", src, dst))
				}
				in[src], *out = *out, in[src]
				c.inbound[dst] = true
			}
		}
	}
}

// sortPosted sorts every outbox after posts made outside an epoch; a
// runner sorts its own shard's outboxes when its epoch ends.
func (c *Coordinator[P]) sortPosted() {
	if c.unsorted {
		for i := range c.lanes {
			c.lanes[i].sortOut()
		}
		c.unsorted = false
	}
}

// release schedules dst's pending records firing strictly before bound
// into its engine, in merge order. prio = lamport: the record fires among
// the destination's same-timestamp events exactly where an event scheduled
// at the sender's send time would have — the engine orders by (at, prio,
// seq), and releasing a sorted prefix fixes seq order within equal
// (at, prio). Only records inside the epoch window are released, so the
// engine-seq tie-break reproduces the (at, lamport, src, seq) total order
// however the run is cut into epochs. The released prefix stays in place
// behind the lane's head offset until fold compacts it.
func (c *Coordinator[P]) release(dst int, bound Time) {
	l, eng := &c.lanes[dst], c.engines[dst]
	pq, h := l.pend, l.head
	n := h
	for ; n < len(pq) && pq[n].at < bound; n++ {
		nd := l.pool
		if nd == nil {
			if len(l.block) == 0 {
				l.block = make([]dnode[P], nodeBlock)
			}
			nd, l.block = &l.block[0], l.block[1:]
			nd.c, nd.dst = c, dst
			nd.slot = eng.Register(KindCrossShard, nd)
		} else {
			l.pool = nd.next
		}
		nd.payload = pq[n].payload
		eng.SchedulePrioKind(pq[n].at, pq[n].lamport, KindCrossShard, nd.slot)
	}
	clear(pq[h:n])
	l.released += uint64(n - h)
	if n == len(pq) {
		l.pend, l.head = pq[:0], 0
	} else {
		l.head = n
	}
}

// nextFor reports shard i's earliest future work: its engine's next event,
// its earliest pending record, or the head of a mailbox about to be sealed
// for it (outboxes are sorted here), whichever is sooner. The record heads
// MUST count — an engine-only minimum would let Run terminate (or the
// fixpoint settle) with undelivered records still buffered.
func (c *Coordinator[P]) nextFor(i int) (Time, bool) {
	at, ok := c.engines[i].NextAt()
	if l := &c.lanes[i]; l.head < len(l.pend) && (!ok || l.pend[l.head].at < at) {
		at, ok = l.pend[l.head].at, true
	}
	for src := range c.lanes {
		if b := c.lanes[src].out[i]; len(b) > 0 && (!ok || b[0].at < at) {
			at, ok = b[0].at, true
		}
	}
	return at, ok
}

// satAdd returns a+b, saturating instead of overflowing — the lookahead is
// "infinite" when a shard pair has no cross-shard path at all.
func satAdd(a, b Time) Time {
	if b > maxTime-a {
		return maxTime
	}
	return a + b
}

// pairBounds fills c.ends with per-shard LBTS epoch bounds from c.nexts
// (maxTime for idle shards) via Dijkstra-style relaxation of
// E_j = min(next_j, min_k(E_k + la[k][j])): settle the smallest
// unsettled E, relax its outgoing edges, repeat. All entries positive ⇒
// settled values only grow ⇒ the greedy order is exact. The bound for
// shard i then takes only *incoming* pairs: bound_i = min_{j≠i}(E_j +
// la[j][i]). The argmin shard's bound strictly exceeds its next event, so
// every round makes progress.
func (c *Coordinator[P]) pairBounds() {
	n := len(c.engines)
	copy(c.eps, c.nexts)
	for i := range c.fixed {
		c.fixed[i] = false
	}
	for range c.engines {
		u, best := -1, maxTime
		for i := 0; i < n; i++ {
			if !c.fixed[i] && c.eps[i] < best {
				u, best = i, c.eps[i]
			}
		}
		if u < 0 {
			break
		}
		c.fixed[u] = true
		for v := 0; v < n; v++ {
			if v == u || c.fixed[v] {
				continue
			}
			if d := satAdd(best, c.la[u][v]); d < c.eps[v] {
				c.eps[v] = d
			}
		}
	}
	for i := 0; i < n; i++ {
		b := maxTime
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if d := satAdd(c.eps[j], c.la[j][i]); d < b {
				b = d
			}
		}
		c.ends[i] = b
	}
}

// Run executes every event with firing time at or before deadline across
// all shards, honouring the registered barriers, then leaves every
// engine's clock at exactly deadline (the RunUntil contract). Events
// beyond the deadline stay queued, as with RunUntil — and Run may be
// called again with a later deadline to continue, which is how sessions
// pause at a checkpoint instant: every engine is globally quiesced at the
// deadline between calls (a natural barrier), so a snapshot taken there
// sees consistent cross-shard state.
func (c *Coordinator[P]) Run(deadline Time) {
	// R = min(shards, GOMAXPROCS) runners, fewer when other coordinators
	// hold the Ps: runner 0 is this goroutine, and over one engine (or with
	// no P to spare) every epoch runs inline and no goroutine is started.
	if n := len(c.engines); n > 1 {
		extra := max(0, min(n-1, runtime.GOMAXPROCS(0)-int(busyRunners.Add(1))))
		busyRunners.Add(int32(extra))
		c.runners = make([]runner, extra)
		for r := range c.runners {
			c.runners[r].start.wake = make(chan struct{}, 1)
			c.runners[r].done.wake = make(chan struct{}, 1)
			go c.runLoop(r + 1)
		}
		defer func() {
			for r := range c.runners {
				c.runners[r].start.set(stopSeq)
				c.runners[r].done.wait(stopSeq, c.spin)
			}
			busyRunners.Add(int32(-extra - 1))
		}()
	}

	for {
		c.sortPosted()
		// Global minimum over engine queues, pending buffers and outboxes.
		// Engines are quiesced here, so no event can appear before it.
		next, any := Time(0), false
		for i := range c.engines {
			at, ok := c.nextFor(i)
			if !ok {
				c.nexts[i] = maxTime
				continue
			}
			c.nexts[i] = at
			if !any || at < next {
				next, any = at, true
			}
		}
		// Barriers beyond the deadline never fire: control actions after
		// the horizon are dropped.
		nextBarrier, haveBarrier := c.nextBarrierAt()
		haveBarrier = haveBarrier && nextBarrier <= deadline
		if !any || next > deadline {
			if !haveBarrier {
				break
			}
			// Nothing to execute before the barrier: quiesce and apply.
			c.fire(nextBarrier)
			continue
		}
		if haveBarrier && nextBarrier <= next {
			// The barrier precedes (or ties) the next event; barrier
			// actions win same-time ties.
			c.fire(nextBarrier)
			continue
		}
		c.pairBounds()
		for i := range c.ends {
			if haveBarrier && nextBarrier < c.ends[i] {
				c.ends[i] = nextBarrier
			}
			if deadline < c.ends[i]-1 {
				c.ends[i] = deadline + 1
			}
		}
		c.runEpoch()
	}
	for _, e := range c.engines {
		// The final epoch may have parked clocks beyond the deadline;
		// settle on the RunUntil contract.
		e.now = deadline
	}
}

// quiesce parks every engine's clock at exactly t. Callable only when no
// engine has an event before t.
func (c *Coordinator[P]) quiesce(t Time) {
	for _, e := range c.engines {
		if e.now < t {
			e.now = t
		}
	}
}

// runLoop is runner r's goroutine: wait for an epoch, run the owned shards,
// report, until told to stop.
func (c *Coordinator[P]) runLoop(r int) {
	rn := &c.runners[r-1]
	for seq := rn.start.wait(1, c.spin); seq != stopSeq; seq = rn.start.wait(seq+1, c.spin) {
		c.runOwned(r)
		rn.done.set(seq)
	}
	rn.done.set(stopSeq)
}

// runOwned runs runner r's share of an epoch, shard by shard: fold the
// mailboxes sealed for it, release the pending prefix inside its window
// into its engine, advance the engine to its bound, and sort what it
// posted meanwhile, ready for the next seal.
func (c *Coordinator[P]) runOwned(r int) {
	for i := r; i < len(c.engines); i += len(c.runners) + 1 {
		l := &c.lanes[i]
		if c.inbound[i] {
			l.fold()
		}
		if c.live[i] {
			c.release(i, c.ends[i])
			c.engines[i].RunBefore(c.ends[i])
			l.sortOut()
		}
	}
}

// runEpoch seals the mailboxes and advances each shard with work in its
// window to its bound. Shards with nothing in their window are parked
// directly; the rest run on their owning runners, with every per-record
// step of the hand-off — fold, release, outbox sort — on the runner that
// owns the shard. Only runners with a live shard or a sealed mailbox to
// fold are posted; the coordinator runs its own share meanwhile. Epoch
// work counts feed the stall-share (load imbalance) meter and the
// per-shard account.
func (c *Coordinator[P]) runEpoch() {
	c.epochs++
	c.seal()
	R, nlive := len(c.runners)+1, 0
	for i, e := range c.engines {
		c.base[i] = e.executed
		if c.live[i] = c.nexts[i] < c.ends[i]; c.live[i] {
			nlive++
			c.acct.Active[i]++
		} else if e.now < c.ends[i] {
			e.now = c.ends[i]
		}
		if r := i % R; r > 0 && (c.live[i] || c.inbound[i]) {
			c.runners[r-1].posted = true
		}
	}
	if nlive > 1 {
		c.acct.Parallel++
	}
	c.epochOn = true
	for r := range c.runners {
		if c.runners[r].posted {
			c.runners[r].start.set(c.epochs)
		}
	}
	c.runOwned(0)
	for r := range c.runners {
		if rn := &c.runners[r]; rn.posted {
			rn.done.wait(c.epochs, c.spin)
			rn.posted = false
		}
	}
	c.epochOn = false
	var wmax, wsum uint64
	for i, e := range c.engines {
		w := e.executed - c.base[i]
		c.acct.Events[i] += w
		wsum += w
		if w > wmax {
			wmax = w
		}
	}
	if wmax > 0 {
		nn := uint64(len(c.engines))
		c.stallNum += nn*wmax - wsum
		c.stallDen += nn * wmax
	}
}

// Checkpoint support. Between Run calls every engine is quiesced at the
// previous deadline and all cross-shard state lives in outboxes and
// pending buffers; CheckpointDrain folds the former into the latter so a
// snapshot only has to serialize sorted pending records plus the per-src
// counters and diagnostics below.

// ShardRec is one serializable pending cross-shard record.
type ShardRec[P any] struct {
	At      Time
	Lamport Time
	Seq     uint64
	Src     int32
	Payload P
}

// CheckpointDrain moves every outbox into its destination's sorted
// pending buffer: the runners' steps (sort, seal, fold) done serially on
// the calling goroutine. Call only between Run calls (all engines
// quiesced).
func (c *Coordinator[P]) CheckpointDrain() {
	c.sortPosted()
	c.seal()
	for i := range c.lanes {
		c.lanes[i].fold()
	}
}

// PendingLen returns how many cross-shard records are pending for dst.
func (c *Coordinator[P]) PendingLen(dst int) int {
	l := &c.lanes[dst]
	return len(l.pend) - l.head
}

// PendingRecord returns the i-th of dst's PendingLen pending cross-shard
// records in merge order, read in place.
func (c *Coordinator[P]) PendingRecord(dst, i int) ShardRec[P] {
	l := &c.lanes[dst]
	r := &l.pend[l.head+i]
	return ShardRec[P]{At: r.at, Lamport: r.lamport, Seq: r.seq, Src: r.src, Payload: r.payload}
}

// RestorePending installs dst's pending records (in the merge order
// PendingRecord reported them). Call on a fresh coordinator before Run.
func (c *Coordinator[P]) RestorePending(dst int, recs []ShardRec[P]) {
	l := &c.lanes[dst]
	pq := l.pend[:0]
	for _, r := range recs {
		pq = append(pq, rec[P]{at: r.At, lamport: r.Lamport, seq: r.Seq, src: r.Src, payload: r.Payload})
	}
	l.pend, l.head = pq, 0
}

// SrcSeq returns source src's record counter.
func (c *Coordinator[P]) SrcSeq(src int) uint64 { return c.lanes[src].seq }

// RestoreSrcSeqs installs the per-source record counters.
func (c *Coordinator[P]) RestoreSrcSeqs(seqs []uint64) {
	if len(seqs) != len(c.lanes) {
		panic("des: source-seq count mismatch on restore")
	}
	for i := range c.lanes {
		c.lanes[i].seq = seqs[i]
	}
}

// Diagnostics returns the coordinator's cumulative counters for
// serialization: epochs, released messages, and the stall-share ratio's
// numerator/denominator.
func (c *Coordinator[P]) Diagnostics() (epochs, messages, stallNum, stallDen uint64) {
	return c.epochs, c.Messages(), c.stallNum, c.stallDen
}

// RestoreDiagnostics installs previously captured counters so a restored
// run's totals continue from the checkpoint.
func (c *Coordinator[P]) RestoreDiagnostics(epochs, messages, stallNum, stallDen uint64) {
	c.epochs, c.messages, c.stallNum, c.stallDen = epochs, messages, stallNum, stallDen
	for i := range c.lanes {
		c.lanes[i].released = 0
	}
}
