package des

import (
	"math/bits"
	"slices"
)

// The event queue is a hierarchical timing wheel: four levels of 256
// buckets, each level 256× coarser than the one below. A tick is 8192 ns
// (shift instead of divide), so the wheel spans 2^32 ticks ≈ 9.8 simulated
// hours ahead of the cursor; events beyond that sit in a small overflow
// heap and migrate in as the cursor approaches.
//
// Why not the seed's 4-ary heap: at the ~10^5 live events the EMcast runs
// reach, every push/pop paid an O(log n) sift with pointer-chasing
// comparisons (~50% of simulation CPU in profiles). Wheel insertion is
// O(1) — mask, chain push, set an occupancy bit — and extraction amortises
// to a 256-bit bitmap scan per non-empty bucket plus one sort per cursor
// advance: everything that lands on the new tick, from the bottom-level
// bucket and from cascading coarse buckets alike, is gathered into the
// ready run in filing order and ordered once. Filing order is most of the
// way to firing order — a phase-locked tie group arrives ascending, a
// cascade as two ascending runs — so the sort is linear on what steady
// forwarding gathers, near-linear on a few monotone runs, and O(n log n)
// only on a disordered burst (see sortReady).
//
// Ordering is bit-for-bit the seed's: events fire in strict (at, prio,
// seq) order — prio being the scheduling-time stamp (monotone in seq for
// a local engine, so this degenerates to the seed's (at, seq) FIFO tie-
// break; see des.go on SchedulePrio for why sharded merging needs the
// explicit middle key). The wheel only ever buckets events; the actual
// firing order within a tick is fixed by sorting the gathered chains on
// (at, prio, seq) when they are promoted to the ready run. seq is unique,
// so the sort has a single valid result and stability is irrelevant.
//
// Cursor invariants:
//
//   - curTick only advances, and never past the tick of an unfired event.
//   - every event in the wheel has tick(at) > curTick; events at or before
//     curTick live in the sorted ready run (this is what keeps late
//     scheduling after RunUntil correct: the cursor may have jumped ahead
//     of the clock, and new events behind it are merge-inserted into ready).
//   - a level-ℓ bucket holds events from exactly one 256^ℓ-tick block,
//     except for the classic wrap case (an event exactly one full level
//     revolution ahead); re-inserting a drained chain re-files wrapped
//     events into the same bucket, which is harmless because each advance
//     drains a bucket at most once.

const (
	// tickShift trades bucket residency against cascade frequency: packet
	// serialisation gaps in the experiments are ~0.1–30 ms, so an 8.2 µs
	// tick keeps typical gaps within the 256-tick bottom level (one bitmap
	// scan per pop, no cascade) while a bucket still only spans a few
	// microseconds of same-bucket events to sort at drain time.
	tickShift = 13 // 1 tick = 8192 ns
	levelBits = 8
	wheelSize = 1 << levelBits // buckets per level
	wheelMask = wheelSize - 1
	numLevels = 4
	// horizonTicks is how far ahead of the cursor the wheel can file.
	horizonTicks = int64(1) << (levelBits * numLevels)
)

func tickOf(at Time) int64 { return int64(at) >> tickShift }

// wheelLevel is one ring: 256 chain-head buckets plus an occupancy bitmap
// so the next non-empty bucket is found with four word scans.
type wheelLevel struct {
	bucket [wheelSize]*event
	occ    [wheelSize / 64]uint64
	count  int
}

func (l *wheelLevel) push(idx int, ev *event) {
	ev.next = l.bucket[idx]
	l.bucket[idx] = ev
	l.occ[idx>>6] |= 1 << (uint(idx) & 63)
	l.count++
}

// take empties bucket idx and returns its chain, newest first: push files
// at the head. The caller, which walks the chain anyway, decrements count
// per node.
func (l *wheelLevel) take(idx int) *event {
	chain := l.bucket[idx]
	l.bucket[idx] = nil
	l.occ[idx>>6] &^= 1 << (uint(idx) & 63)
	return chain
}

// nearestFrom returns the index of the first occupied bucket strictly
// after position p in circular order (p+1, p+2, …, p+256). The bucket at
// p itself is only reachable as the full-revolution wrap, which is exactly
// the classic "delta 256" case on coarse levels.
func (l *wheelLevel) nearestFrom(p int) (int, bool) {
	if l.count == 0 {
		return 0, false
	}
	start := (p + 1) & wheelMask
	wi := start >> 6
	off := uint(start) & 63
	if w := l.occ[wi] &^ (1<<off - 1); w != 0 {
		return wi<<6 + bits.TrailingZeros64(w), true
	}
	for k := 1; k <= len(l.occ); k++ {
		j := (wi + k) & (len(l.occ) - 1)
		w := l.occ[j]
		if k == len(l.occ) {
			w &= 1<<off - 1 // wrap: the part of word wi below start
		}
		if w != 0 {
			return j<<6 + bits.TrailingZeros64(w), true
		}
	}
	return 0, false
}

// insert files ev relative to the cursor: into the sorted ready run when
// its tick is not ahead of curTick, into the finest level that spans its
// distance otherwise, or into the overflow heap beyond the horizon.
func (e *Engine) insert(ev *event) {
	t := tickOf(ev.at)
	d := t - e.curTick
	switch {
	case d <= 0:
		e.insertReady(ev)
	case d < 1<<levelBits:
		e.levels[0].push(int(t)&wheelMask, ev)
	case d < 1<<(2*levelBits):
		e.levels[1].push(int(t>>levelBits)&wheelMask, ev)
	case d < 1<<(3*levelBits):
		e.levels[2].push(int(t>>(2*levelBits))&wheelMask, ev)
	case d < horizonTicks:
		e.levels[3].push(int(t>>(3*levelBits))&wheelMask, ev)
	default:
		e.overflow.push(ev)
	}
}

// insertReady merge-inserts ev into the sorted ready run at its (at, seq)
// position. Used for events at or behind the cursor: same-tick schedules
// made from inside a callback, and post-RunUntil schedules behind a jumped
// cursor.
func (e *Engine) insertReady(ev *event) {
	lo, hi := e.readyHead, len(e.ready)
	for lo < hi {
		mid := (lo + hi) / 2
		if eventLess(e.ready[mid], ev) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	e.ready = append(e.ready, nil)
	copy(e.ready[lo+1:], e.ready[lo:])
	e.ready[lo] = ev
}

// fill makes ready[readyHead] the globally next live event, reaping
// canceled records on the way. It returns false when the queue is empty.
func (e *Engine) fill() bool {
	for {
		for e.readyHead < len(e.ready) {
			ev := e.ready[e.readyHead]
			if !ev.canceled {
				return true
			}
			e.ready[e.readyHead] = nil
			e.readyHead++
			e.release(ev)
		}
		e.ready = e.ready[:0]
		e.readyHead = 0

		// Pull overflow events that came within the horizon.
		for e.overflow.len() > 0 {
			top := e.overflow.peek()
			if top.canceled {
				e.overflow.pop()
				e.release(top)
				continue
			}
			if tickOf(top.at)-e.curTick >= horizonTicks {
				break
			}
			e.overflow.pop()
			e.insert(top)
		}

		// Locate the earliest possible tick across the levels: per level,
		// the block start of the nearest occupied bucket.
		best := int64(-1)
		for lvl := 0; lvl < numLevels; lvl++ {
			l := &e.levels[lvl]
			if l.count == 0 {
				continue
			}
			shift := uint(levelBits * lvl)
			p := int(e.curTick>>shift) & wheelMask
			idx, ok := l.nearestFrom(p)
			if !ok {
				continue
			}
			delta := int64((idx - p) & wheelMask)
			if delta == 0 {
				delta = wheelSize // full-revolution wrap
			}
			start := ((e.curTick >> shift) + delta) << shift
			if best < 0 || start < best {
				best = start
			}
		}
		if best < 0 {
			if e.overflow.len() > 0 {
				// Wheel empty, overflow beyond horizon: jump the cursor so
				// the next migration loop files the heap's front.
				e.curTick = tickOf(e.overflow.peek().at) - horizonTicks + 1
				continue
			}
			return false
		}
		e.advanceTo(best)
	}
}

// advanceTo moves the cursor to tick t (<= every unfired event's tick) and
// gathers everything that fires on it into the ready run, which fill has
// just emptied: coarse buckets cascade top-down — events on tick t go
// straight to ready, later ones re-file one level finer — then the bottom-
// level bucket follows, and the run is sorted once. Each chain is walked
// once, newest first, and both of its parts keep filing order: the events
// it appends to ready are reversed in place, and those it re-files are
// strung into a list oldest first and filed from that.
func (e *Engine) advanceTo(t int64) {
	e.curTick = t
	for lvl := numLevels - 1; lvl >= 0; lvl-- {
		l := &e.levels[lvl]
		if l.count == 0 {
			continue
		}
		start := len(e.ready)
		var later *event
		for ev := l.take(int(t>>uint(levelBits*lvl)) & wheelMask); ev != nil; {
			nxt := ev.next
			l.count--
			switch {
			case ev.canceled:
				e.release(ev)
			case tickOf(ev.at) <= t:
				ev.next = nil
				e.ready = append(e.ready, ev)
			default:
				ev.next = later
				later = ev
			}
			ev = nxt
		}
		slices.Reverse(e.ready[start:])
		for ev := later; ev != nil; {
			nxt := ev.next
			e.insert(ev)
			ev = nxt
		}
	}
	e.sortReady()
}

// sortReady orders the ready run by (at, prio, seq); the comparison is a
// strict total order because seq is unique, so every correct sort fires
// the same sequence. It is an insertion sort on a budget of two shifts per
// event: steady forwarding gathers runs that are short or nearly ordered
// as filed, and those finish within the budget at a compare or two per
// event. A run that exhausts it is long and out of order — a synchronized
// burst puts thousands of events on one tick, where insertion sort is
// quadratic — and mergeRuns finishes it. Nothing is allocated once the
// ready run's capacity covers its longest run and half again: what the
// merges stage lives in that spare capacity, which the run keeps.
func (e *Engine) sortReady() {
	evs := e.ready
	budget := 2 * len(evs)
	for i := 1; i < len(evs); i++ {
		ev := evs[i]
		j := i
		for j > 0 {
			p := evs[j-1]
			if eventLess(p, ev) {
				break
			}
			evs[j] = p
			j--
		}
		evs[j] = ev
		if budget -= i - j; budget < 0 {
			e.mergeRuns(i + 1)
			return
		}
	}
}

const (
	// maxRuns is how many monotone runs mergeRuns will merge; their
	// boundaries live in a fixed array on its stack.
	maxRuns = 256
	// minRunLen is the mean run length below which a ready run counts as
	// too fragmented to merge.
	minRunLen = 2
)

// mergeRuns sorts the ready run, whose prefix ready[:hi] ascends. One pass
// splits it into maximal ascending runs, reversing descending ones in
// place — a chain filed against its firing order is one descending run, a
// cascade leaves two ascending ones back to back — and adjacent runs merge
// pairwise until one is left, in n·log₂(runs) comparisons at most. More
// than maxRuns runs, or runs shorter than minRunLen on average, are too
// fragmented to merge: such a run goes to pdqsort (in place, O(n log n)
// worst case) and counts in pdqRuns.
func (e *Engine) mergeRuns(hi int) {
	n := len(e.ready)
	limit := max(1, min(maxRuns, n/minRunLen))
	var ends [maxRuns + 1]int32 // run k is ready[ends[k]:ends[k+1]]
	runs := 0
	for i := 0; i < n; runs++ {
		if runs == limit {
			e.pdqRuns++
			slices.SortFunc(e.ready, eventCmp)
			return
		}
		i = runEnd(e.ready, i, max(hi, i+1))
		ends[runs+1] = int32(i)
	}
	for runs > 1 {
		w := 0
		for k := 0; k+1 < runs; k += 2 {
			e.merge(int(ends[k]), int(ends[k+1]), int(ends[k+2]))
			w++
			ends[w] = ends[k+2]
		}
		if runs%2 == 1 {
			w++
			ends[w] = ends[runs]
		}
		runs = w
	}
}

// runEnd returns the end of the maximal monotone run of evs that starts at
// lo and whose prefix evs[lo:hi] ascends, reversing the run if it descends.
func runEnd(evs []*event, lo, hi int) int {
	if hi == lo+1 && hi < len(evs) && eventLess(evs[hi], evs[lo]) {
		for hi++; hi < len(evs) && eventLess(evs[hi], evs[hi-1]); hi++ {
		}
		slices.Reverse(evs[lo:hi])
		return hi
	}
	for ; hi < len(evs) && eventLess(evs[hi-1], evs[hi]); hi++ {
	}
	return hi
}

// merge merges the ascending runs ready[lo:mid] and ready[mid:hi]. What is
// already in place — the first run's events below the second's first, the
// second's above the first's last — is found by binary search and left
// alone. The shorter remainder is staged in the ready run's spare
// capacity, which grows with the run when it is short.
func (e *Engine) merge(lo, mid, hi int) {
	evs := e.ready
	if mid == hi || eventLess(evs[mid-1], evs[mid]) {
		return
	}
	lo += after(evs[lo:mid], evs[mid])
	hi = mid + after(evs[mid:hi], evs[mid-1])
	if mid-lo <= hi-mid {
		tmp := e.spare(mid - lo)
		evs = e.ready
		copy(tmp, evs[lo:mid])
		i, j, k := 0, mid, lo
		for ; i < len(tmp) && j < hi; k++ {
			if eventLess(evs[j], tmp[i]) {
				evs[k] = evs[j]
				j++
			} else {
				evs[k] = tmp[i]
				i++
			}
		}
		copy(evs[k:], tmp[i:])
		return
	}
	tmp := e.spare(hi - mid)
	evs = e.ready
	copy(tmp, evs[mid:hi])
	i, j, k := len(tmp)-1, mid-1, hi-1
	for ; i >= 0 && j >= lo; k-- {
		if eventLess(tmp[i], evs[j]) {
			evs[k] = evs[j]
			j--
		} else {
			evs[k] = tmp[i]
			i--
		}
	}
	copy(evs[k-i:k+1], tmp[:i+1])
}

// after returns the index of the first event of the ascending run evs that
// fires after ev, which is not in it.
func after(evs []*event, ev *event) int {
	lo, hi := 0, len(evs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if eventLess(ev, evs[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// spare returns m slots of the ready run's spare capacity, growing the run
// when it has fewer. They hold stale pointers after a merge, to records
// the event pool keeps alive anyway.
func (e *Engine) spare(m int) []*event {
	n := len(e.ready)
	if cap(e.ready)-n < m {
		e.ready = slices.Grow(e.ready, m)
	}
	return e.ready[n : n+m : n+m]
}

// peek returns the next live event without consuming it, or nil.
func (e *Engine) peek() *event {
	if !e.fill() {
		return nil
	}
	return e.ready[e.readyHead]
}

// next consumes and returns the next live event, or nil.
func (e *Engine) next() *event {
	if !e.fill() {
		return nil
	}
	ev := e.ready[e.readyHead]
	e.ready[e.readyHead] = nil
	e.readyHead++
	return ev
}

// overflowHeap is a plain binary min-heap on (at, prio, seq) for events
// beyond the wheel horizon. It is cold storage: real runs never reach it
// (the horizon is ~9.8 simulated hours), so no indexing or eager removal
// — canceled records are reaped when they surface.
type overflowHeap struct {
	evs []*event
}

func (h *overflowHeap) len() int     { return len(h.evs) }
func (h *overflowHeap) peek() *event { return h.evs[0] }

func overflowLess(a, b *event) bool { return eventLess(a, b) }

func (h *overflowHeap) push(ev *event) {
	h.evs = append(h.evs, ev)
	i := len(h.evs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !overflowLess(h.evs[i], h.evs[parent]) {
			break
		}
		h.evs[i], h.evs[parent] = h.evs[parent], h.evs[i]
		i = parent
	}
}

func (h *overflowHeap) pop() *event {
	top := h.evs[0]
	n := len(h.evs) - 1
	h.evs[0] = h.evs[n]
	h.evs[n] = nil
	h.evs = h.evs[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && overflowLess(h.evs[c+1], h.evs[c]) {
			c++
		}
		if !overflowLess(h.evs[c], h.evs[i]) {
			break
		}
		h.evs[i], h.evs[c] = h.evs[c], h.evs[i]
		i = c
	}
	return top
}
