package des

import (
	"fmt"
	"testing"
)

// uniformLA is the n×n lookahead matrix with every off-diagonal entry d.
func uniformLA(n int, d Duration) [][]Duration {
	la := make([][]Duration, n)
	for i := range la {
		la[i] = make([]Duration, n)
		for j := range la[i] {
			if i != j {
				la[i][j] = d
			}
		}
	}
	return la
}

// tickEvery runs fn on eng after first and then every period — body
// first, re-arm after, the self-rescheduling idiom the simulator's
// periodic components use.
func tickEvery(eng *Engine, first, period Duration, fn func()) {
	var tick func()
	tick = func() {
		fn()
		eng.ScheduleIn(period, tick)
	}
	eng.ScheduleIn(first, tick)
}

// TestCoordinatorMergesDeterministically drives four shards that ping-pong
// cross-shard messages concurrently and checks the per-shard event logs are
// identical across repeated runs — the fixed-N determinism contract,
// independent of OS goroutine scheduling. Each shard appends only to its
// own log (the same isolation the simulator's shard-local stats rely on).
func TestCoordinatorMergesDeterministically(t *testing.T) {
	const shards = 4
	run := func() [shards][]string {
		var logs [shards][]string
		engines := make([]*Engine, shards)
		for i := range engines {
			engines[i] = New()
		}
		type hopMsg struct{ src, hop int }
		c := NewCoordinatorMatrix[hopMsg](engines, uniformLA(shards, Millisecond))
		c.OnDeliver(func(dst int, m hopMsg) {
			logs[dst] = append(logs[dst], fmt.Sprintf("s%d<-s%d hop%d@%v", dst, m.src, m.hop, engines[dst].Now()))
		})
		// Every shard runs a ticker that posts round-robin to the next
		// shard; arrivals log on the destination's own slice.
		for src := 0; src < shards; src++ {
			src := src
			hop := 0
			tickEvery(engines[src], Time(src+1)*100*Microsecond, 700*Microsecond, func() {
				hop++
				h := hop
				at := engines[src].Now() + Millisecond + Time(h)*17
				dst := (src + 1 + h%2) % shards
				if dst == src {
					return
				}
				c.PostPayload(src, dst, at, hopMsg{src, h})
			})
		}
		c.Run(30 * Millisecond)
		return logs
	}
	first := run()
	total := 0
	for _, l := range first {
		total += len(l)
	}
	if total == 0 {
		t.Fatal("workload produced no cross-shard messages")
	}
	for i := 0; i < 10; i++ {
		got := run()
		for s := range got {
			if fmt.Sprint(got[s]) != fmt.Sprint(first[s]) {
				t.Fatalf("run %d shard %d diverged:\n%v\nvs\n%v", i, s, got[s], first[s])
			}
		}
	}
}

// TestCoordinatorCrossShardOrder pins the merge order with single-shard
// epochs (each shard only ever has events in disjoint windows, so the
// shared log is safe).
func TestCoordinatorCrossShardOrder(t *testing.T) {
	var log []string
	engines := []*Engine{New(), New(), New()}
	c := NewCoordinatorMatrix[string](engines, uniformLA(3, Millisecond))
	c.OnDeliver(func(_ int, msg string) { log = append(log, msg) })
	// Shards 1 and 2 each post to shard 0, arriving at the same time.
	// Shard 1's send happens at a later lamport time, so shard 2's message
	// must run first despite the higher shard index posting... lamport
	// wins over src.
	engines[1].Schedule(2*Millisecond, func() {
		c.PostPayload(1, 0, 10*Millisecond, "from1@2")
	})
	engines[2].Schedule(1*Millisecond, func() {
		c.PostPayload(2, 0, 10*Millisecond, "from2@1")
	})
	c.Run(20 * Millisecond)
	if len(log) != 2 || log[0] != "from2@1" || log[1] != "from1@2" {
		t.Fatalf("merge order = %v, want [from2@1 from1@2] (lamport before src)", log)
	}
	if c.Messages() != 2 {
		t.Fatalf("messages = %d, want 2", c.Messages())
	}
}

// TestCoordinatorOrdersPostsOutsideEpochs covers posts no runner sorts:
// made before Run and from a barrier action, out of arrival order and
// with an exact (at, lamport) tie across sources, they must reach their
// destination in the total order — and a run whose only work left is
// such a record must not end before delivering it.
func TestCoordinatorOrdersPostsOutsideEpochs(t *testing.T) {
	engines := []*Engine{New(), New(), New()}
	c := NewCoordinatorMatrix[string](engines, uniformLA(3, Millisecond))
	var log []string
	c.OnDeliver(func(_ int, msg string) { log = append(log, msg) })
	c.PostPayload(2, 0, 9*Millisecond, "b9")
	c.PostPayload(1, 0, 9*Millisecond, "a9") // ties b9 on (at, lamport): src 1 first
	c.PostPayload(1, 0, 5*Millisecond, "a5")
	c.AtBarriers([]Time{2 * Millisecond}, func(Time) {
		c.PostPayload(2, 0, 7*Millisecond, "b7")
		c.PostPayload(2, 0, 4*Millisecond, "b4")
	})
	c.Run(20 * Millisecond)
	if want := "[b4 a5 b7 a9 b9]"; fmt.Sprint(log) != want {
		t.Fatalf("delivered %v, want %s", log, want)
	}
}

// TestCoordinatorBarrierBeatsSameTimeEvents checks the sequential tie
// rule: a barrier action at time t runs before any engine event at t, and
// with every engine's clock parked at exactly t.
func TestCoordinatorBarrierBeatsSameTimeEvents(t *testing.T) {
	var log []string
	engines := []*Engine{New(), New()}
	c := NewCoordinatorMatrix[struct{}](engines, uniformLA(2, Millisecond))
	engines[0].Schedule(5*Millisecond, func() { log = append(log, "event@5") })
	c.AtBarriers([]Time{5 * Millisecond, 15 * Millisecond}, func(at Time) {
		for i, e := range engines {
			if e.Now() != at {
				t.Fatalf("barrier at %v: engine %d clock %v", at, i, e.Now())
			}
		}
		log = append(log, fmt.Sprintf("barrier@%v", at.Millis()))
	})
	c.Run(20 * Millisecond)
	want := "[barrier@5 event@5 barrier@15]"
	if fmt.Sprint(log) != want {
		t.Fatalf("log = %v, want %v", log, want)
	}
}

// barrierCursor is a barrier source over a fixed list that counts how often
// the coordinator asks it: next reads the cursor, fired moves it on.
type barrierCursor struct {
	times []Time
	i     int
	asked int
	log   *[]string
}

func (b *barrierCursor) next() (Time, bool) {
	b.asked++
	if b.i == len(b.times) {
		return 0, false
	}
	return b.times[b.i], true
}

func (b *barrierCursor) fired(at Time) {
	b.i++
	*b.log = append(*b.log, fmt.Sprintf("barrier@%v", at.Millis()))
}

// TestBarrierSource holds OnBarriers to the contract the session's
// schedule cursors rest on: the coordinator asks the source only when a
// Run needs the next barrier and keeps the answer, across Run calls, until
// that barrier fires; a barrier wins a same-instant tie with an event; and
// a source that yields an instant not after the last barrier fired panics.
func TestBarrierSource(t *testing.T) {
	t.Run("lazy", func(t *testing.T) {
		var log []string
		engines := []*Engine{New(), New()}
		c := NewCoordinatorMatrix[struct{}](engines, uniformLA(2, Millisecond))
		src := &barrierCursor{times: []Time{5 * Millisecond, 15 * Millisecond}, log: &log}
		c.OnBarriers(src.next, src.fired)
		if src.asked != 0 {
			t.Fatalf("registration asked the source %d times", src.asked)
		}
		c.Run(3 * Millisecond) // 5 ms is beyond: read and kept
		c.Run(4 * Millisecond)
		if src.asked != 1 || len(log) != 0 {
			t.Fatalf("after two Runs short of the first barrier: asked %d, fired %v; want 1 and none", src.asked, log)
		}
		c.Run(10 * Millisecond) // fires 5 ms, reads 15 ms and keeps it
		if src.asked != 2 || fmt.Sprint(log) != "[barrier@5]" {
			t.Fatalf("after Run(10ms): asked %d, fired %v; want 2 and [barrier@5]", src.asked, log)
		}
		c.Run(20 * Millisecond) // fires 15 ms, learns none is left
		c.Run(30 * Millisecond)
		if src.asked != 3 || fmt.Sprint(log) != "[barrier@5 barrier@15]" {
			t.Fatalf("after Run(30ms): asked %d, fired %v; want 3 and both", src.asked, log)
		}
	})
	t.Run("tie", func(t *testing.T) {
		var log []string
		engines := []*Engine{New()}
		c := NewCoordinatorMatrix[struct{}](engines, uniformLA(1, Millisecond))
		engines[0].Schedule(5*Millisecond, func() { log = append(log, "event@5") })
		src := &barrierCursor{times: []Time{5 * Millisecond}, log: &log}
		c.OnBarriers(src.next, src.fired)
		c.Run(4 * Millisecond)
		c.Run(5 * Millisecond)
		if want := "[barrier@5 event@5]"; fmt.Sprint(log) != want {
			t.Fatalf("log = %v, want %v", log, want)
		}
	})
	for _, c := range []struct {
		name  string
		times []Time
	}{{"repeated", []Time{5 * Millisecond, 5 * Millisecond}}, {"descending", []Time{5 * Millisecond, 3 * Millisecond}}} {
		t.Run(c.name, func(t *testing.T) {
			var log []string
			co := NewCoordinatorMatrix[struct{}]([]*Engine{New()}, uniformLA(1, Millisecond))
			src := &barrierCursor{times: c.times, log: &log}
			co.OnBarriers(src.next, src.fired)
			defer func() {
				if recover() == nil {
					t.Fatalf("%v yielded without a panic (fired %v)", c.times, log)
				}
			}()
			co.Run(10 * Millisecond)
		})
	}
	t.Run("stuck", func(t *testing.T) {
		// A barrier func that does not move the source past its instant
		// would have it fire forever: the second read panics.
		co := NewCoordinatorMatrix[struct{}]([]*Engine{New()}, uniformLA(1, Millisecond))
		fired := 0
		co.OnBarriers(func() (Time, bool) { return 5 * Millisecond, true }, func(Time) { fired++ })
		defer func() {
			if recover() == nil || fired != 1 {
				t.Fatalf("a source stuck at 5 ms fired %d times; want one, then a panic", fired)
			}
		}()
		co.Run(10 * Millisecond)
	})
}

// TestCoordinatorBarriersBeyondDeadlineDropped mirrors the control plane's
// rule that events after the traffic horizon never apply.
func TestCoordinatorBarriersBeyondDeadlineDropped(t *testing.T) {
	fired := 0
	engines := []*Engine{New()}
	c := NewCoordinatorMatrix[struct{}](engines, uniformLA(1, Millisecond))
	c.AtBarriers([]Time{5 * Millisecond, 15 * Millisecond}, func(Time) { fired++ })
	c.Run(10 * Millisecond)
	if fired != 1 {
		t.Fatalf("barriers fired = %d, want 1 (the 15ms barrier is beyond the deadline)", fired)
	}
	if got := engines[0].Now(); got != 10*Millisecond {
		t.Fatalf("final clock = %v, want 10ms", got)
	}
}

// TestCoordinatorLookaheadViolationPanics pins the causality guard.
func TestCoordinatorLookaheadViolationPanics(t *testing.T) {
	engines := []*Engine{New(), New()}
	c := NewCoordinatorMatrix[struct{}](engines, uniformLA(2, Millisecond))
	c.OnDeliver(func(int, struct{}) {})
	engines[0].Schedule(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("posting below the lookahead did not panic")
			}
		}()
		c.PostPayload(0, 1, 100, struct{}{}) // 100ns << 1ms lookahead
	})
	c.Run(Millisecond)
}

// TestCoordinatorMatchesSequentialEngine runs the same self-rescheduling
// workload on one engine via RunUntil and on the same model split over a
// coordinator with an idle peer shard; counts and final clocks must agree.
func TestCoordinatorMatchesSequentialEngine(t *testing.T) {
	load := func(e *Engine) *int {
		count := new(int)
		var tick func()
		tick = func() {
			*count++
			e.ScheduleIn(700*Microsecond, tick)
		}
		e.ScheduleIn(0, tick)
		return count
	}
	seq := New()
	seqCount := load(seq)
	seq.RunUntil(50 * Millisecond)

	shard := New()
	shardCount := load(shard)
	c := NewCoordinatorMatrix[struct{}]([]*Engine{shard, New()}, uniformLA(2, 2*Millisecond))
	c.Run(50 * Millisecond)

	if *seqCount != *shardCount {
		t.Fatalf("event counts: sequential %d, sharded %d", *seqCount, *shardCount)
	}
	if seq.Now() != shard.Now() {
		t.Fatalf("clocks: sequential %v, sharded %v", seq.Now(), shard.Now())
	}
	if shard.Pending() == 0 {
		t.Fatal("ticker should still be pending beyond the deadline")
	}
}

// TestRunBeforeExcludesBound pins RunBefore's strict bound and clock
// advance.
func TestRunBeforeExcludesBound(t *testing.T) {
	e := New()
	var fired []Time
	e.Schedule(1*Millisecond, func() { fired = append(fired, e.Now()) })
	e.Schedule(2*Millisecond, func() { fired = append(fired, e.Now()) })
	e.RunBefore(2 * Millisecond)
	if len(fired) != 1 || fired[0] != Millisecond {
		t.Fatalf("fired = %v, want exactly the 1ms event", fired)
	}
	if e.Now() != 2*Millisecond {
		t.Fatalf("clock = %v, want 2ms", e.Now())
	}
	e.RunBefore(2*Millisecond + 1)
	if len(fired) != 2 {
		t.Fatalf("the 2ms event did not fire under an exclusive 2ms+1 bound")
	}
}

// TestNextAt pins the non-consuming peek.
func TestNextAt(t *testing.T) {
	e := New()
	if _, ok := e.NextAt(); ok {
		t.Fatal("empty engine reported a next event")
	}
	e.Schedule(3*Millisecond, func() {})
	at, ok := e.NextAt()
	if !ok || at != 3*Millisecond {
		t.Fatalf("NextAt = %v,%v want 3ms,true", at, ok)
	}
	if e.Pending() != 1 {
		t.Fatal("NextAt consumed the event")
	}
}

// TestCoordinatorOverOneEngineIsRunUntil pins the one-shard degeneration:
// a coordinator over a single engine fires the same events in the same
// order as Engine.RunUntil on the same script, parks the clock at exactly
// each deadline across repeated Run calls, and runs a barrier action
// before the events at its instant.
func TestCoordinatorOverOneEngineIsRunUntil(t *testing.T) {
	script := func(e *Engine, log *[]string) {
		var tick func()
		n := 0
		tick = func() {
			n++
			*log = append(*log, fmt.Sprintf("tick%d@%v", n, e.Now()))
			e.ScheduleIn(700*Microsecond, tick)
		}
		e.ScheduleIn(0, tick)
		for _, at := range []Time{5 * Millisecond, 5 * Millisecond, 12 * Millisecond} {
			at := at
			e.Schedule(at, func() { *log = append(*log, fmt.Sprintf("once@%v", at)) })
		}
	}
	deadlines := []Time{3 * Millisecond, 5 * Millisecond, 5*Millisecond + 1, 20 * Millisecond}

	var want []string
	ref := New()
	script(ref, &want)
	for _, d := range deadlines {
		ref.RunUntil(d)
	}

	var got []string
	eng := New()
	script(eng, &got)
	c := NewCoordinatorMatrix[struct{}]([]*Engine{eng}, uniformLA(1, 0))
	for _, d := range deadlines {
		c.Run(d)
		if eng.Now() != d {
			t.Fatalf("clock after Run(%v) = %v", d, eng.Now())
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("firing log diverged from RunUntil:\n got %v\nwant %v", got, want)
	}
	if eng.executed != ref.executed || eng.Pending() != ref.Pending() {
		t.Fatalf("executed/pending %d/%d, RunUntil %d/%d", eng.executed, eng.Pending(), ref.executed, ref.Pending())
	}

	// With barriers: each action runs before the same-instant events, and
	// everything else keeps the RunUntil order.
	var barred []string
	eng = New()
	script(eng, &barred)
	c = NewCoordinatorMatrix[struct{}]([]*Engine{eng}, uniformLA(1, 0))
	c.AtBarriers([]Time{5 * Millisecond, 12 * Millisecond}, func(at Time) {
		if eng.Now() != at {
			t.Fatalf("barrier at %v: clock %v", at, eng.Now())
		}
		barred = append(barred, fmt.Sprintf("barrier@%v", at))
	})
	for _, d := range deadlines {
		c.Run(d)
	}
	var wantBarred []string
	seen := map[Time]bool{}
	for _, line := range want {
		for _, at := range []Time{5 * Millisecond, 12 * Millisecond} {
			if !seen[at] && line == fmt.Sprintf("once@%v", at) {
				seen[at] = true
				wantBarred = append(wantBarred, fmt.Sprintf("barrier@%v", at))
			}
		}
		wantBarred = append(wantBarred, line)
	}
	if fmt.Sprint(barred) != fmt.Sprint(wantBarred) {
		t.Fatalf("barrier order:\n got %v\nwant %v", barred, wantBarred)
	}
}

// TestPairBoundsRunFewerEpochs is why the lookahead is a matrix: the same
// event script under a non-uniform matrix and under the uniform matrix of
// its minimum entry must fire identically, and the non-uniform one — whose
// distant pairs bound each other less — must need strictly fewer epochs.
func TestPairBoundsRunFewerEpochs(t *testing.T) {
	// Shards 0 and 1 are neighbours (1 ms); shard 2 is far from both (8 ms).
	near, far := Millisecond, 8*Millisecond
	real := [][]Duration{{0, near, far}, {near, 0, far}, {far, far, 0}}
	run := func(la [][]Duration) (logs [3][]string, epochs uint64) {
		engines := []*Engine{New(), New(), New()}
		type msg struct{ src, hop int }
		c := NewCoordinatorMatrix[msg](engines, la)
		c.OnDeliver(func(dst int, m msg) {
			logs[dst] = append(logs[dst], fmt.Sprintf("s%d<-s%d hop%d@%v", dst, m.src, m.hop, engines[dst].Now()))
		})
		for src := range engines {
			src := src
			hop := 0
			tickEvery(engines[src], Time(src+1)*100*Microsecond, 900*Microsecond, func() {
				hop++
				dst := (src + 1 + hop%2) % 3
				// Every post honours the real pair delay, so the script is
				// legal under both matrices.
				c.PostPayload(src, dst, engines[src].Now()+real[src][dst]+Time(hop)*13, msg{src, hop})
				logs[src] = append(logs[src], fmt.Sprintf("s%d tick%d@%v", src, hop, engines[src].Now()))
			})
		}
		c.Run(60 * Millisecond)
		return logs, c.Epochs()
	}
	pairLogs, pairEpochs := run(real)
	minLogs, minEpochs := run(uniformLA(3, near))
	for s := range pairLogs {
		if len(pairLogs[s]) == 0 {
			t.Fatalf("shard %d logged nothing — script is broken", s)
		}
		if fmt.Sprint(pairLogs[s]) != fmt.Sprint(minLogs[s]) {
			t.Fatalf("shard %d firing log differs between matrices:\n pair %v\n  min %v", s, pairLogs[s], minLogs[s])
		}
	}
	if pairEpochs >= minEpochs {
		t.Fatalf("pair matrix ran %d epochs, uniform minimum %d — expected strictly fewer", pairEpochs, minEpochs)
	}
}
