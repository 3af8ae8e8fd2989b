package des

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/xrand"
)

// The paper's worst case is a synchronized burst, which files thousands of
// events into one wheel tick. These tests pin the order such a chain fires
// in, that draining it allocates nothing, and that its cost per event does
// not grow with its length the way a quadratic sort's would.

const tickNs = Time(1) << tickShift

// chainShapes are the orders a one-tick chain can be filed in: the i-th of
// n events gets a sub-tick offset and a tie-break priority (perm is a
// seeded permutation of 0..n-1). seq is the filing order throughout, and a
// bucket hands its chain to the ready run in that order.
var chainShapes = []struct {
	name string
	key  func(i, n int, perm []int) (off, prio Time)
}{
	// One identical instant, so seq alone orders the chain: the shape a
	// t=0 burst produces. A head-first walk saw it exactly reversed (the
	// name); filing order is its firing order.
	{"reversed", func(i, n int, perm []int) (Time, Time) { return 17, 0 }},
	{"descending-at", func(i, n int, perm []int) (Time, Time) { return Time(n-1-i) * tickNs / Time(n), 0 }},
	{"shuffled", func(i, n int, perm []int) (Time, Time) { return Time(perm[i]) * tickNs / Time(n), 0 }},
	// Pairs tie on prio as well, so seq decides between them.
	{"distinct-prio", func(i, n int, perm []int) (Time, Time) { return 17, Time(perm[i] / 2) }},
	{"phase-locked", phaseLocked},
	// Two ascending runs back to back, interleaved in firing order: the
	// events a level-1 bucket cascades onto a tick behind those filed on
	// it directly.
	{"cascaded", func(i, n int, perm []int) (Time, Time) {
		if i < n/2 {
			return 17, Time(2*i + 1)
		}
		return 17, Time(2 * (i - n/2))
	}},
	// In order but for one event, filed mid-chain, that fires first.
	{"one-displaced", func(i, n int, perm []int) (Time, Time) {
		if i == n/2 {
			return 17, -1
		}
		return 17, Time(i)
	}},
}

// phaseLocked is the chain the serialisation grid files: two events in
// three are an exact tie group (completions of one size at one capacity,
// scheduled at one instant), and every third is a stray at its own
// sub-tick instant — a propagation arrival — interleaved in filing order,
// the first strays firing before the group and the last ones after it.
func phaseLocked(i, n int, perm []int) (Time, Time) {
	if i%3 != 2 {
		return tickNs / 2, 0
	}
	k, m := i/3, n/3+1
	return Time(k) * tickNs / Time(m), Time(k + 1)
}

// firingRef records what was scheduled, in schedule order, and checks the
// firing sequence against the sorted (at, prio, seq) reference.
type firingRef struct {
	evs   []event // seq = index; canceled marks events that must not fire
	fired []int
}

// add records an event and returns the callback that logs its firing.
func (r *firingRef) add(at, prio Time) func() {
	i := len(r.evs)
	r.evs = append(r.evs, event{at: at, prio: prio, seq: uint64(i)})
	return func() { r.fired = append(r.fired, i) }
}

func (r *firingRef) check(t *testing.T) {
	t.Helper()
	var want []int
	for i := range r.evs {
		if !r.evs[i].canceled {
			want = append(want, i)
		}
	}
	slices.SortFunc(want, func(a, b int) int { return eventCmp(&r.evs[a], &r.evs[b]) })
	if len(r.fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(r.fired), len(want))
	}
	for i := range want {
		if r.fired[i] != want[i] {
			a, b := r.evs[r.fired[i]], r.evs[want[i]]
			t.Fatalf("firing order diverges at %d: got (at=%d prio=%d seq=%d), want (at=%d prio=%d seq=%d)",
				i, a.at, a.prio, a.seq, b.at, b.prio, b.seq)
		}
	}
}

// TestLongSameTickChains drains one-tick chains, from short enough for
// sortReady's insertion budget to far beyond it, in every shape, against
// the reference order.
func TestLongSameTickChains(t *testing.T) {
	for _, n := range []int{17, 1 << 10, 1 << 16} {
		perm := xrand.New(uint64(n)).Perm(n)
		for _, shape := range chainShapes {
			t.Run(fmt.Sprintf("%s/%d", shape.name, n), func(t *testing.T) {
				eng := New()
				ref := &firingRef{}
				for i := 0; i < n; i++ {
					off, prio := shape.key(i, n, perm)
					eng.scheduleFunc(5*tickNs+off, prio, ref.add(5*tickNs+off, prio))
				}
				if got := eng.levels[0].count; got != n {
					t.Fatalf("level 0 holds %d events, want all %d in one bucket", got, n)
				}
				eng.Run()
				ref.check(t)
			})
		}
	}
}

// TestCascadeOntoCurrentTick lands chains from every wheel level on one
// tick in a single cursor advance: the tick is 256³, so the level-3,
// level-2 and level-1 buckets holding it all cascade straight into the
// ready run beside the level-0 bucket, with canceled records and
// later-tick events (which must re-file, not fire early) mixed in.
func TestCascadeOntoCurrentTick(t *testing.T) {
	const target = int64(1) << (3 * levelBits) // tick
	at := Time(target) << tickShift
	eng := New()
	ref := &firingRef{}
	rng := xrand.New(0xCA5CADE)
	var handles []Event // parallel to ref.evs
	schedule := func(at Time, then func()) {
		fire := ref.add(at, eng.Now())
		handles = append(handles, eng.Schedule(at, func() {
			fire()
			if then != nil {
				then()
			}
		}))
	}
	// chain files 500 events on the target tick and a few beyond it, then
	// cancels every seventh of them.
	chain := func() {
		first := len(handles)
		for i := 0; i < 500; i++ {
			schedule(at+Time(rng.Intn(int(tickNs))), nil)
		}
		for _, later := range []Time{3, 300, 70_000} {
			schedule(at+later*tickNs, nil)
		}
		for i := first; i < len(handles); i += 7 {
			eng.Cancel(handles[i])
			ref.evs[i].canceled = true
		}
	}
	// From ever closer to the target, so each chain sits one level finer.
	schedule(0, chain)
	schedule(Time(target-70_000)<<tickShift, chain)
	schedule(Time(target-1000)<<tickShift, chain)
	schedule(Time(target-10)<<tickShift, func() {
		chain()
		// Every level must now hold its chain, or the next advance is not
		// the four-level gather this test is for.
		for lvl := 0; lvl < numLevels; lvl++ {
			n := 0
			for ev := eng.levels[lvl].bucket[int(target>>(levelBits*lvl))&wheelMask]; ev != nil; ev = ev.next {
				n++
			}
			if n < 500 {
				t.Errorf("level %d holds %d events for the target tick, want its whole chain", lvl, n)
			}
		}
	})
	eng.Run()
	ref.check(t)
	for lvl := range eng.levels {
		if c := eng.levels[lvl].count; c != 0 {
			t.Errorf("level %d counts %d events after the queue drained", lvl, c)
		}
	}
}

// fileBurst schedules one no-op event per sub-tick offset on a tick ahead
// of the cursor.
func fileBurst(eng *Engine, nop func(), offsets []int) {
	base := (eng.Now()>>tickShift + 2) << tickShift
	for _, off := range offsets {
		eng.Schedule(base+Time(off), nop)
	}
}

// burstShapes are the chains the cost tests file, as sub-tick offsets in
// filing order (all scheduled at one instant, so seq breaks their ties):
// one instant, shuffled instants, and the phase-locked, cascaded and
// one-displaced shapes of chainShapes.
var burstShapes = []struct {
	name    string
	offsets func(n int) []int
}{
	{"reversed", func(n int) []int { return make([]int, n) }},
	{"shuffled", shuffledOffsets},
	{"phase-locked", func(n int) []int {
		offsets := make([]int, n)
		for i := range offsets {
			offsets[i] = int(tickNs / 2)
			if i%3 == 2 {
				offsets[i] = (i / 3) * int(tickNs) / (n/3 + 1)
			}
		}
		return offsets
	}},
	{"cascaded", func(n int) []int {
		offsets := make([]int, n)
		for i := range offsets {
			offsets[i] = (i % (n / 2)) * int(tickNs) / (n / 2)
		}
		return offsets
	}},
	{"one-displaced", func(n int) []int {
		offsets := make([]int, n)
		for i := range offsets {
			offsets[i] = i * int(tickNs) / n
		}
		offsets[n/2] = 0
		return offsets
	}},
}

func shuffledOffsets(n int) []int {
	rng := xrand.New(uint64(n))
	offsets := make([]int, n)
	for i := range offsets {
		offsets[i] = rng.Intn(int(tickNs))
	}
	return offsets
}

// Draining a long bucket must not allocate, in any shape: the sort works in
// place, and what the merge stages lives in the ready run's spare capacity,
// which the run keeps.
func TestBurstDrainZeroAlloc(t *testing.T) {
	const n = 4096
	for _, shape := range burstShapes {
		eng := New()
		nop := func() {}
		offsets := shape.offsets(n)
		burst := func() {
			fileBurst(eng, nop, offsets)
			eng.Run()
		}
		burst() // grow the event pool and the ready run
		if allocs := testing.AllocsPerRun(10, burst); allocs != 0 {
			t.Errorf("%s: draining a %d-event bucket allocates %.1f times per burst, want 0", shape.name, n, allocs)
		}
	}
}

// TestPdqOnlyForDisorder pins which chains reach pdqsort (pdqRuns): one
// filed in firing order, a cascade's two runs and a chain with one event
// out of place never do, at any length, because their runs merge; a
// shuffled chain long enough to be all short runs does. A phase-locked
// chain is a run of three events per stray, so it merges up to maxRuns
// strays and goes to pdqsort beyond; no run of the benchmark workloads is
// that fragmented (DESIGN.md §2). (descending-at is one descending run only while its
// offsets are distinct: at 64k events it is 8-event tie groups filed
// against the firing order, 8k ascending runs.)
func TestPdqOnlyForDisorder(t *testing.T) {
	never := map[string]int{ // longest chain that must merge; 0 is any
		"reversed": 0, "cascaded": 0, "one-displaced": 0, "phase-locked": 3 * maxRuns,
	}
	for _, n := range []int{17, 100, 3 * maxRuns, 1 << 10, 1 << 13, 1 << 16} {
		perm := xrand.New(uint64(n)).Perm(n)
		for _, shape := range chainShapes {
			eng := New()
			for i := 0; i < n; i++ {
				off, prio := shape.key(i, n, perm)
				eng.scheduleFunc(5*tickNs+off, prio, func() {})
			}
			eng.Run()
			longest, ok := never[shape.name]
			switch {
			case ok && (longest == 0 || n <= longest) && eng.pdqRuns != 0:
				t.Errorf("%s/%d: %d runs reached pdqsort, want none", shape.name, n, eng.pdqRuns)
			case shape.name == "shuffled" && n >= 1<<10 && eng.pdqRuns == 0:
				t.Errorf("%s/%d: no run reached pdqsort", shape.name, n)
			}
		}
	}
}

// BenchmarkWheelBurst reports the cost per event of filing and draining a
// one-tick chain, by chain length and shape: flat for an n log n drain,
// growing with n for a quadratic one.
func BenchmarkWheelBurst(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 13, 1 << 16} {
		for _, shape := range burstShapes {
			b.Run(fmt.Sprintf("%dk/%s", n>>10, shape.name), func(b *testing.B) {
				eng := New()
				nop := func() {}
				offsets := shape.offsets(n)
				fileBurst(eng, nop, offsets) // grow the event pool
				eng.Run()
				b.ReportAllocs()
				for b.Loop() {
					fileBurst(eng, nop, offsets)
					eng.Run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/event")
			})
		}
	}
}

// TestBurstDrainScalesNearLinearly is the guard against a quadratic drain.
// It compares cost per event on 64k-event chains with 8k-event chains: a
// ratio, so the speed of the box cancels. n log n predicts about 1.2× (plus
// cache misses once a chain outgrows L2); the unbounded insertion sort this
// replaced predicts 8× and measured 10.6×. Wall time is all a test can read
// without a counter in the drain, so the protocol is what makes it immune
// to packages running beside it (spinning shard runners, for one): the two
// sizes are timed alternately, each keeps its fastest trial — a minimum
// only falls towards the undisturbed cost — and trials go on until the
// ratio of minima is inside the bound or the attempts run out. A quadratic
// drain is over the bound in every trial, so it still fails, every time.
func TestBurstDrainScalesNearLinearly(t *testing.T) {
	const small, large, bound = 1 << 13, 1 << 16, 3.0
	const minTrials, maxTrials = 5, 40
	type chain struct {
		eng     *Engine
		offsets []int
		best    time.Duration
	}
	nop := func() {}
	trial := func(c *chain) time.Duration { // one trial drains `large` events
		start := time.Now()
		for done := 0; done < large; done += len(c.offsets) {
			fileBurst(c.eng, nop, c.offsets)
			c.eng.Run()
		}
		return time.Since(start)
	}
	for _, shape := range burstShapes {
		s := &chain{eng: New(), offsets: shape.offsets(small)}
		l := &chain{eng: New(), offsets: shape.offsets(large)}
		s.best, l.best = trial(s), trial(l) // grows the pools; replaced below
		s.best, l.best = trial(s), trial(l)
		n := 1
		for ; n < maxTrials && (n < minTrials || float64(l.best) > bound*float64(s.best)); n++ {
			s.best, l.best = min(s.best, trial(s)), min(l.best, trial(l))
		}
		t.Logf("%s: %d-event chains %v, %d-event chains %v per %d events (ratio %.2f, %d trials)",
			shape.name, small, s.best, large, l.best, large, float64(l.best)/float64(s.best), n)
		if float64(l.best) > bound*float64(s.best) {
			t.Errorf("%s: a %d-event chain costs %.1f× a %d-event chain per event, bound %.0f×: the drain is not n log n",
				shape.name, large, float64(l.best)/float64(s.best), small, bound)
		}
	}
}
