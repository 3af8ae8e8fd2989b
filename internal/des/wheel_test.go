package des

import (
	"testing"

	"repro/internal/xrand"
)

// refEvent / refHeap reimplement the seed engine's queue — the hand-rolled
// 4-ary min-heap on (at, seq) with eager removal — as the ordering oracle
// for the timing wheel. The differential test below drives both structures
// with the same schedule/cancel stream and demands bit-identical firing
// sequences.
type refEvent struct {
	at    Time
	seq   uint64
	id    int
	index int
}

type refHeap struct {
	heap []*refEvent
	seq  uint64
}

func (h *refHeap) less(a, b *refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *refHeap) push(at Time, id int) *refEvent {
	ev := &refEvent{at: at, seq: h.seq, id: id}
	h.seq++
	ev.index = len(h.heap)
	h.heap = append(h.heap, ev)
	h.siftUp(ev.index)
	return ev
}

func (h *refHeap) pop() *refEvent {
	ev := h.heap[0]
	h.remove(0)
	return ev
}

func (h *refHeap) remove(i int) {
	n := len(h.heap) - 1
	removed := h.heap[i]
	if i != n {
		h.heap[i] = h.heap[n]
		h.heap[i].index = i
	}
	h.heap[n] = nil
	h.heap = h.heap[:n]
	if i < n {
		if !h.siftDown(i) {
			h.siftUp(i)
		}
	}
	removed.index = -1
}

func (h *refHeap) siftUp(i int) {
	ev := h.heap[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !h.less(ev, h.heap[parent]) {
			break
		}
		h.heap[i] = h.heap[parent]
		h.heap[i].index = i
		i = parent
	}
	h.heap[i] = ev
	ev.index = i
}

func (h *refHeap) siftDown(i int) bool {
	ev := h.heap[i]
	start := i
	n := len(h.heap)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h.less(h.heap[c], h.heap[min]) {
				min = c
			}
		}
		if !h.less(h.heap[min], ev) {
			break
		}
		h.heap[i] = h.heap[min]
		h.heap[i].index = i
		i = min
	}
	h.heap[i] = ev
	ev.index = i
	return i > start
}

// TestDifferentialWheelVsSeedHeap drives the timing wheel and the seed's
// 4-ary heap with an identical randomized schedule/cancel stream —
// including same-timestamp bursts, sub-tick offsets, mid-run re-scheduling
// from callbacks, and far-future (overflow-heap) events — and asserts the
// two fire the surviving events in exactly the same order.
func TestDifferentialWheelVsSeedHeap(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := xrand.New(0xD1F + uint64(trial))
		eng := New()
		ref := &refHeap{}

		type pending struct {
			h  Event
			rv *refEvent
		}
		var gotOrder []int
		n := 64 + rng.Intn(512)
		id := 0
		handles := make([]pending, 0, n)
		schedule := func(at Time) {
			i := id
			id++
			h := eng.Schedule(at, func() {
				gotOrder = append(gotOrder, i)
				// Occasionally reschedule follow-up work from inside the
				// callback, mirroring serve loops. Mirror into the oracle.
				if i%7 == 3 {
					j := id
					id++
					d := Duration(1 + rng.Intn(5_000_000)) // up to 5 ms
					eng.ScheduleIn(d, func() { gotOrder = append(gotOrder, j) })
					ref.push(eng.Now()+d, j)
				}
			})
			handles = append(handles, pending{h: h, rv: ref.push(at, i)})
		}
		for k := 0; k < n; k++ {
			var at Time
			switch rng.Intn(10) {
			case 0: // same-instant burst
				at = Time(rng.Intn(4)) * 1_000_000
			case 1: // sub-tick spread (1024 ns inside one 8192 ns bucket)
				at = 5_000_000 + Time(rng.Intn(1024))
			case 2: // far future: exercises coarse levels
				at = Time(rng.Intn(1_000_000_000_000)) // up to 1000 s
			case 3: // beyond the wheel horizon: overflow heap
				at = Time(5_000_000_000_000) + Time(rng.Intn(1_000_000_000))
			default: // typical packet-scale times
				at = Time(rng.Intn(100_000_000))
			}
			schedule(at)
		}
		// Cancel a random subset through both structures.
		for _, p := range handles {
			if rng.Bool(0.25) {
				eng.Cancel(p.h)
				if p.rv.index >= 0 {
					ref.remove(p.rv.index)
				}
			}
		}
		eng.Run()
		var wantOrder []int
		for len(ref.heap) > 0 {
			wantOrder = append(wantOrder, ref.pop().id)
		}
		if len(gotOrder) != len(wantOrder) {
			t.Fatalf("trial %d: wheel fired %d events, seed heap %d",
				trial, len(gotOrder), len(wantOrder))
		}
		for i := range gotOrder {
			if gotOrder[i] != wantOrder[i] {
				t.Fatalf("trial %d: firing order diverges at %d: wheel %d, heap %d",
					trial, i, gotOrder[i], wantOrder[i])
			}
		}
	}
}

// Events beyond the wheel horizon park in the overflow heap and must still
// fire in order once the cursor approaches.
func TestOverflowHorizonOrdering(t *testing.T) {
	eng := New()
	var order []int
	far := Time(horizonTicks<<tickShift) * 3
	eng.Schedule(far+5, func() { order = append(order, 3) })
	eng.Schedule(10, func() { order = append(order, 1) })
	eng.Schedule(far, func() { order = append(order, 2) })
	eng.Schedule(far+5, func() { order = append(order, 4) }) // tie: FIFO by seq
	eng.Run()
	want := []int{1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if eng.Now() != far+5 {
		t.Fatalf("Now() = %v", eng.Now())
	}
}

func TestCancelOverflowEvent(t *testing.T) {
	eng := New()
	far := Time(horizonTicks<<tickShift) * 2
	fired := false
	ev := eng.Schedule(far, func() { fired = true })
	eng.Schedule(5, func() {})
	eng.Cancel(ev)
	eng.Run()
	if fired {
		t.Fatal("canceled overflow event fired")
	}
}

// After RunUntil the cursor may have jumped ahead of the clock (to the
// next pending event's bucket). Scheduling behind the cursor must still
// fire in correct order — the regression this guards is the ready-run
// merge insert.
func TestScheduleBehindCursorAfterRunUntil(t *testing.T) {
	eng := New()
	var order []int
	eng.Schedule(100*Second, func() { order = append(order, 3) })
	eng.RunUntil(Second) // cursor jumps toward the 100 s event
	eng.Schedule(2*Second, func() { order = append(order, 1) })
	eng.Schedule(3*Second, func() { order = append(order, 2) })
	eng.Run()
	want := []int{1, 2, 3}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// Steady-state rescheduling must be allocation-free: the event records
// recycle through the pool and the pool stops growing.
func TestSteadyStatePoolStopsGrowing(t *testing.T) {
	eng := New()
	for i := 0; i < 64; i++ {
		period := Duration(1000 + i*37)
		var tick func()
		tick = func() { eng.ScheduleIn(period, tick) }
		eng.ScheduleIn(period, tick)
	}
	for i := 0; i < 1024; i++ {
		eng.Step()
	}
	high := eng.poolSize
	for i := 0; i < 8192; i++ {
		eng.Step()
	}
	if eng.poolSize != high {
		t.Fatalf("pool grew in steady state: %d -> %d", high, eng.poolSize)
	}
}

func TestSameTickSubOrder(t *testing.T) {
	// Events inside one 8192 ns bucket must fire by exact nanosecond, then
	// seq.
	eng := New()
	var order []Time
	base := Time(1 << 20)
	for _, off := range []Time{900, 100, 500, 100, 0} {
		at := base + off
		eng.Schedule(at, func() { order = append(order, at) })
	}
	eng.Run()
	want := []Time{base, base + 100, base + 100, base + 500, base + 900}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}
