package des

import (
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/xrand"
)

func TestTimeConversions(t *testing.T) {
	if Seconds(1.5) != 1500*Millisecond {
		t.Fatalf("Seconds(1.5) = %v", Seconds(1.5))
	}
	if Millis(2.5) != 2500*Microsecond {
		t.Fatalf("Millis(2.5) = %v", Millis(2.5))
	}
	if got := (250 * Millisecond).Seconds(); got != 0.25 {
		t.Fatalf("Seconds() = %v", got)
	}
	if got := (250 * Microsecond).Millis(); got != 0.25 {
		t.Fatalf("Millis() = %v", got)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	eng := New()
	var order []Time
	times := []Time{50, 10, 30, 20, 40, 15, 5}
	for _, at := range times {
		at := at
		eng.Schedule(at, func() { order = append(order, at) })
	}
	eng.Run()
	if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] }) {
		t.Fatalf("events fired out of order: %v", order)
	}
	if len(order) != len(times) {
		t.Fatalf("fired %d of %d events", len(order), len(times))
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	eng := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		eng.Schedule(100, func() { order = append(order, i) })
	}
	eng.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestNowAdvances(t *testing.T) {
	eng := New()
	eng.Schedule(42, func() {
		if eng.Now() != 42 {
			t.Fatalf("Now() = %v inside event at 42", eng.Now())
		}
	})
	eng.Run()
	if eng.Now() != 42 {
		t.Fatalf("Now() = %v after run", eng.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	eng := New()
	eng.Schedule(100, func() {})
	eng.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	eng.Schedule(50, func() {})
}

func TestScheduleNilPanics(t *testing.T) {
	eng := New()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling nil func did not panic")
		}
	}()
	eng.Schedule(1, nil)
}

// pinger is a component-shaped owner: registered once, it re-schedules
// itself by its slot the way a duty-cycle clock does, alternating the two
// kinds of its family, and counts what each kind fired.
type pinger struct {
	eng   *Engine
	slot  uint32
	fired [NumKinds]int
}

func (p *pinger) Fire(kind uint16) {
	p.fired[kind]++
	next := KindSRLOn
	if kind == KindSRLOn {
		next = KindSRLOff
	}
	p.eng.ScheduleInKind(1, next, p.slot)
}

// TestHandlersAllocateNothing: firing owners through their table — two
// clock-shaped owners with a hole between them, each alternating the
// family's two kinds — and a self-rescheduling func through the closure
// slab allocate nothing once the pools are warm: an event stores no
// callback, and a fired closure's slot is the next one's.
func TestHandlersAllocateNothing(t *testing.T) {
	eng := New()
	a, b := &pinger{eng: eng}, &pinger{eng: eng}
	a.slot = eng.Register(KindSRLOn, a)
	b.slot = eng.Own(KindSRLOff, a.slot+2, b)
	eng.ScheduleInKind(1, KindSRLOn, a.slot)
	eng.ScheduleInKind(1, KindSRLOff, b.slot)
	ticks := 0
	var tick func()
	tick = func() { ticks++; eng.ScheduleIn(1, tick) }
	eng.ScheduleIn(1, tick)
	for i := 0; i < 1000; i++ {
		eng.Step()
	}
	if n := testing.AllocsPerRun(1000, func() { eng.Step() }); n != 0 {
		t.Fatalf("a steady step allocated %v objects, want 0", n)
	}
	for _, p := range []*pinger{a, b} {
		if p.fired[KindSRLOn] == 0 || p.fired[KindSRLOff] == 0 {
			t.Fatalf("owner at slot %d fired %d on- and %d off-edges", p.slot, p.fired[KindSRLOn], p.fired[KindSRLOff])
		}
	}
	if ticks == 0 || len(eng.Owners(KindNone)) != 1 {
		t.Fatalf("the func fired %d times from a closure slab of %d slots, want one slot", ticks, len(eng.Owners(KindNone)))
	}
	if on, off := eng.Owners(KindSRLOn), eng.Owners(KindSRLOff); len(on) != 3 || &on[0] != &off[0] || on[1] != nil {
		t.Fatalf("a family's kinds do not share one table with the hole left open: %v, %v", on, off)
	}
}

// counter counts what it fires, by kind.
type counter struct{ fired [NumKinds]int }

func (c *counter) Fire(kind uint16) { c.fired[kind]++ }

// TestRetiredSlotIsReclaimed: Retire empties a slot and Reclaim hands back
// the owner and the slot, last retired first; a new owner Owned there
// never fires an event cancelled before the retire, though the cancelled
// record still sits in the wheel naming the slot, and PendingEvents never
// lists it. Register never hands out a retired slot.
func TestRetiredSlotIsReclaimed(t *testing.T) {
	eng := New()
	old, other := new(counter), new(counter)
	slot := eng.Register(KindSRRetry, old)
	eng.Register(KindSRRetry, other)
	ev := eng.ScheduleKind(10, KindSRRetry, slot)
	live := eng.ScheduleKind(20, KindSRRetry, slot+1)
	eng.Cancel(ev)
	eng.Retire(KindSRRetry, slot)
	if tbl := eng.Owners(KindSRRetry); tbl[slot] != nil || len(tbl) != 2 {
		t.Fatalf("after Retire the table is %v, want a hole at slot %d", tbl, slot)
	}
	h, s, ok := eng.Reclaim(KindSRRetry)
	if !ok || h != Handler(old) || s != slot {
		t.Fatalf("Reclaim = (%v, %d, %v), want the retired owner at slot %d", h, s, ok, slot)
	}
	if _, _, ok := eng.Reclaim(KindSRRetry); ok {
		t.Fatal("Reclaim handed out a second owner from one retire")
	}
	reborn := new(counter)
	eng.Own(KindSRRetry, s, reborn)
	evs, err := eng.PendingEvents(nil)
	if err != nil || len(evs) != 1 || evs[0].Arg != slot+1 {
		t.Fatalf("PendingEvents = %v (%v), want only the live event for slot %d", evs, err, slot+1)
	}
	eng.Run()
	if reborn.fired[KindSRRetry] != 0 || old.fired[KindSRRetry] != 0 {
		t.Fatalf("the cancelled event fired: %d on the new owner, %d on the retired one", reborn.fired[KindSRRetry], old.fired[KindSRRetry])
	}
	if other.fired[KindSRRetry] != 1 || live.Pending() {
		t.Fatalf("the live event fired %d times", other.fired[KindSRRetry])
	}
	if n := eng.Register(KindSRRetry, new(counter)); n != 2 {
		t.Fatalf("Register took slot %d, want the table's next, 2", n)
	}
}

// TestEventRecordSize pins the queue record at 48 bytes: an event is its
// (at, prio, seq, kind, arg) plus the wheel's link and the handle
// generation, and no callback.
func TestEventRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 48 {
		t.Fatalf("event record is %d bytes, want 48", got)
	}
}

// TestEveryKindHasOneFamily: every kind in the registry fires from one
// owner table and the retired slots from none; the kinds one owner fires
// share a table and no two owners do; and the process-local kinds are
// exactly the closure and the coordinator's delivery.
func TestEveryKindHasOneFamily(t *testing.T) {
	retired := map[uint16]bool{1: true, 14: true, 15: true}
	shared := map[uint16]uint16{KindSRLOff: KindSRLOn, KindSrcTick: KindSrcCycle, KindAudioWake: KindAudioTalk}
	for k := uint16(0); k < NumKinds; k++ {
		if (kinds[k].name == "") != retired[k] {
			t.Errorf("kind %d: name %q, retired %v", k, kinds[k].name, retired[k])
		}
		if retired[k] {
			eng := New()
			eng.Schedule(1, func() {}) // the closure slab, kind 0's table, holds one
			if eng.Owners(k) != nil {
				t.Errorf("retired kind %d has an owner table", k)
			}
			continue
		}
		want, ok := shared[k]
		if !ok {
			want = k
		}
		if kinds[k].table != want {
			t.Errorf("kind %d fires from kind %d's table, want %d's", k, kinds[k].table, want)
		}
		if kinds[k].local != (k == KindNone || k == KindCrossShard) {
			t.Errorf("kind %d: local = %v", k, kinds[k].local)
		}
		if kinds[k].pool != (k == KindFlight) {
			t.Errorf("kind %d: pool = %v", k, kinds[k].pool)
		}
	}
}

// TestReinsertRefusesWhatItCannotName: a restore's record that names no
// owner is an error — a retired, unregistered or process-local kind, a
// slot past its table or on a hole, a time before Now — and one that does
// fires its owner.
func TestReinsertRefusesWhatItCannotName(t *testing.T) {
	eng := New()
	p := &pinger{eng: eng}
	p.slot = eng.Own(KindSRLOn, 2, p)
	eng.Schedule(15, func() {}) // the closure slab holds slot 0
	eng.RestoreNow(10)
	for _, bad := range []struct {
		at   Time
		kind uint16
		arg  uint32
	}{
		{20, 1, 0}, {20, 14, 0}, {20, NumKinds, 0}, {20, KindNone, 0}, {20, KindCrossShard, 0},
		{20, KindSRLOn, 3}, {20, KindSRLOn, 1}, {20, KindMuxDone, 0}, {9, KindSRLOn, 2},
	} {
		if _, err := eng.Reinsert(bad.at, bad.at, bad.kind, bad.arg); err == nil {
			t.Errorf("Reinsert(at %v, kind %d, arg %d) succeeded", bad.at, bad.kind, bad.arg)
		}
	}
	ev, err := eng.Reinsert(20, 10, KindSRLOff, 2)
	if err != nil || !ev.Pending() {
		t.Fatalf("Reinsert of a named owner: %v, pending %v", err, ev.Pending())
	}
	eng.RunUntil(20)
	if p.fired[KindSRLOff] != 1 {
		t.Fatalf("the re-inserted event fired its owner %d times", p.fired[KindSRLOff])
	}
}

// recordPool is a Pool of n records, each counting its firings.
type recordPool struct{ fired []int }

func (p *recordPool) FireArg(_ uint16, arg uint32) { p.fired[arg]++ }
func (p *recordPool) Holds(arg uint32) bool        { return int(arg) < len(p.fired) }

// TestPoolOwnsItsFamily: a pooled family fires its one owner with each
// event's arg and takes no owner-table slot; registering a per-record
// owner for it, or pooling a family that is not pooled, is a model bug;
// and a re-inserted record must name one the pool holds.
func TestPoolOwnsItsFamily(t *testing.T) {
	eng := New()
	pool := &recordPool{fired: make([]int, 3)}
	eng.OwnPool(KindFlight, pool)
	eng.ScheduleKind(5, KindFlight, 2)
	eng.ScheduleKind(6, KindFlight, 2)
	eng.ScheduleKind(7, KindFlight, 0)
	eng.RunUntil(10)
	if pool.fired[0] != 1 || pool.fired[1] != 0 || pool.fired[2] != 2 {
		t.Fatalf("pool records fired %v, want [1 0 2]", pool.fired)
	}
	if tbl := eng.Owners(KindFlight); tbl != nil {
		t.Fatalf("the pooled family has an owner table of %d slots", len(tbl))
	}
	for name, bad := range map[string]func(){
		"Register on a pooled kind": func() { eng.Register(KindFlight, &pinger{}) },
		"OwnPool on a table kind":   func() { eng.OwnPool(KindMuxDone, pool) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			bad()
		}()
	}
	if _, err := eng.Reinsert(20, 20, KindFlight, 3); err == nil {
		t.Error("Reinsert of a record the pool does not hold succeeded")
	}
	if _, err := New().Reinsert(20, 20, KindFlight, 0); err == nil {
		t.Error("Reinsert of a flight into an engine with no pool succeeded")
	}
	if _, err := eng.Reinsert(20, 20, KindFlight, 1); err != nil {
		t.Fatalf("Reinsert of a held record: %v", err)
	}
	eng.RunUntil(20)
	if pool.fired[1] != 1 {
		t.Fatalf("the re-inserted record fired %d times", pool.fired[1])
	}
}

func TestCancel(t *testing.T) {
	eng := New()
	fired := false
	ev := eng.Schedule(10, func() { fired = true })
	eng.Cancel(ev)
	eng.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if ev.Pending() {
		t.Fatal("canceled event still pending")
	}
}

func TestCancelIsImmediate(t *testing.T) {
	eng := New()
	ev := eng.Schedule(10, func() {})
	if eng.Pending() != 1 {
		t.Fatalf("pending = %d", eng.Pending())
	}
	eng.Cancel(ev)
	if eng.Pending() != 0 {
		t.Fatalf("canceled event still counted, pending = %d", eng.Pending())
	}
}

func TestCancelTwiceAndAfterFire(t *testing.T) {
	eng := New()
	ev := eng.Schedule(10, func() {})
	eng.Run()
	eng.Cancel(ev)      // after firing: no-op
	eng.Cancel(ev)      // twice: no-op
	eng.Cancel(Event{}) // zero handle: no-op
}

// A handle must go stale after its event fires, even though the record is
// recycled for a later event: canceling through the stale handle must not
// touch the new incarnation.
func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	eng := New()
	first := eng.Schedule(10, func() {})
	eng.Run()
	fired := false
	second := eng.Schedule(20, func() { fired = true })
	if first.Pending() {
		t.Fatal("fired handle still pending")
	}
	eng.Cancel(first) // stale: must not cancel the recycled record
	if !second.Pending() {
		t.Fatal("stale cancel hit the recycled event")
	}
	eng.Run()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

func TestEventAt(t *testing.T) {
	eng := New()
	ev := eng.Schedule(77, func() {})
	if ev.At() != 77 {
		t.Fatalf("At() = %v", ev.At())
	}
	eng.Run()
	if ev.At() != 0 {
		t.Fatalf("stale At() = %v", ev.At())
	}
}

func TestScheduleFromWithinEvent(t *testing.T) {
	eng := New()
	var log []Time
	eng.Schedule(10, func() {
		log = append(log, eng.Now())
		eng.ScheduleIn(5, func() { log = append(log, eng.Now()) })
	})
	eng.Run()
	if len(log) != 2 || log[0] != 10 || log[1] != 15 {
		t.Fatalf("log = %v", log)
	}
}

func TestRunUntil(t *testing.T) {
	eng := New()
	count := 0
	for i := 1; i <= 10; i++ {
		eng.Schedule(Time(i)*10, func() { count++ })
	}
	eng.RunUntil(55)
	if count != 5 {
		t.Fatalf("RunUntil(55) executed %d events", count)
	}
	if eng.Now() != 55 {
		t.Fatalf("Now() = %v after RunUntil(55)", eng.Now())
	}
	eng.RunUntil(200)
	if count != 10 {
		t.Fatalf("second RunUntil executed total %d", count)
	}
}

func TestExecutedCounter(t *testing.T) {
	eng := New()
	for i := 0; i < 5; i++ {
		eng.Schedule(Time(i), func() {})
	}
	ev := eng.Schedule(99, func() {})
	eng.Cancel(ev)
	eng.Run()
	if eng.executed != 5 {
		t.Fatalf("executed = %d", eng.executed)
	}
}

// Property: with arbitrary event times, the firing sequence is the sorted
// multiset of scheduled times.
func TestQuickWheelOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		eng := New()
		want := make([]Time, len(raw))
		var got []Time
		for i, v := range raw {
			at := Time(v)
			want[i] = at
			eng.Schedule(at, func() { got = append(got, at) })
		}
		eng.Run()
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: random interleaving of schedule/cancel fires exactly the
// non-canceled set.
func TestQuickCancelConsistency(t *testing.T) {
	rng := xrand.New(77)
	for trial := 0; trial < 100; trial++ {
		eng := New()
		fired := make(map[int]bool)
		events := make([]Event, 0, 64)
		n := 1 + rng.Intn(64)
		for i := 0; i < n; i++ {
			i := i
			ev := eng.Schedule(Time(rng.Intn(1000)), func() { fired[i] = true })
			events = append(events, ev)
		}
		canceled := make(map[int]bool)
		for i, ev := range events {
			if rng.Bool(0.4) {
				eng.Cancel(ev)
				canceled[i] = true
			}
		}
		eng.Run()
		for i := range events {
			if canceled[i] && fired[i] {
				t.Fatalf("trial %d: canceled event %d fired", trial, i)
			}
			if !canceled[i] && !fired[i] {
				t.Fatalf("trial %d: live event %d did not fire", trial, i)
			}
		}
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	rng := xrand.New(1)
	times := make([]Time, 1024)
	for i := range times {
		times[i] = Time(rng.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := New()
		for _, at := range times {
			eng.Schedule(at, func() {})
		}
		eng.Run()
	}
}

// BenchmarkHotLoopPingPong times two events perpetually rescheduling each
// other: the regulator on/off pattern in miniature. The pool is warmed
// before the timer starts, so a run as short as -benchtime 1x times a
// steady step, not the first event block's allocation.
func BenchmarkHotLoopPingPong(b *testing.B) {
	eng := New()
	count := 0
	var ping, pong func()
	ping = func() { count++; eng.ScheduleIn(1, pong) }
	pong = func() { count++; eng.ScheduleIn(1, ping) }
	eng.ScheduleIn(1, ping)
	for i := 0; i < 4096; i++ {
		eng.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

func BenchmarkCancelHeavy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := New()
		evs := make([]Event, 256)
		for j := range evs {
			evs[j] = eng.Schedule(Time(j), func() {})
		}
		for j := 0; j < len(evs); j += 2 {
			eng.Cancel(evs[j])
		}
		eng.Run()
	}
}

// BenchmarkSteadyState measures the regulator-shaped steady state: a few
// hundred self-rescheduling processes at mixed periods. This is the
// workload the timing wheel exists for; it must not allocate.
func BenchmarkSteadyState(b *testing.B) {
	eng := New()
	for i := 0; i < 256; i++ {
		period := Duration(500_000 + 7919*i) // ~0.5–2.5 ms, co-prime spread
		var tick func()
		tick = func() { eng.ScheduleIn(period, tick) }
		eng.ScheduleIn(period, tick)
	}
	// Warm the pool.
	for i := 0; i < 4096; i++ {
		eng.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}
