package des

import (
	"encoding/binary"
	"testing"
)

// FuzzWheelCursorBehind fuzzes the wheel's trickiest path: merge-inserting
// into the sorted ready run when the cursor has jumped ahead of the clock
// (after RunUntil toward a far event) and new events land at or behind
// curTick. The oracle is the engine's documented contract: across the whole
// run, live events fire in strict (at, schedule-order) order, canceled
// events never fire, and nothing is lost.
//
// Each input byte stream decodes to a little op program:
//
//	op 0: Schedule at now + small delta   (bottom wheel levels / ready run)
//	op 1: Schedule at now + scaled delta  (coarse levels, overflow heap)
//	op 2: RunUntil(now + delta)           (jumps the cursor; behind-cursor
//	                                       schedules follow)
//	op 3: Cancel a previously scheduled event
func FuzzWheelCursorBehind(f *testing.F) {
	le := binary.LittleEndian
	mk := func(ops ...uint64) []byte {
		out := make([]byte, 0, len(ops)*3)
		for _, op := range ops {
			var b [3]byte
			b[0] = byte(op)
			le.PutUint16(b[1:], uint16(op>>8))
			out = append(out, b[:]...)
		}
		return out
	}
	// Seeds: same-tick bursts, a RunUntil jump followed by behind-cursor
	// schedules, coarse-level and overflow-horizon distances, cancels.
	f.Add(mk(0x0000_00, 0x0000_00, 0x0100_02, 0x0003_00, 0x0002_00))
	f.Add(mk(0xffff_01, 0x0010_02, 0x0001_00, 0x0001_00, 0x0000_03))
	f.Add(mk(0xffff_01, 0xffff_01, 0xffff_02, 0x0000_00, 0x0002_00, 0x0004_03))
	f.Add(mk(0x8000_02, 0x0001_00, 0x0003_00, 0x0001_03, 0x4000_02))
	// Long one-tick chains (burst_test.go pins these shapes at 64k events;
	// a program holds 512 ops): one instant, so the bucket chain is the
	// firing order reversed; descending instants; shuffled instants.
	// Distinct-prio chains have no op here — the oracle is (at, order).
	op0 := func(ns int) uint64 { return uint64(ns) << 8 }
	var same, desc, shuf []uint64
	for i := 0; i < 400; i++ {
		same = append(same, op0(0x0100))
		desc = append(desc, op0(8000-20*i))
		shuf = append(shuf, op0(i*7919%8192))
	}
	f.Add(mk(same...))
	f.Add(mk(desc...))
	f.Add(mk(shuf...))
	// A cascade onto the current tick beside a level-0 bucket. With the
	// clock at tick 1017 and the cursor still at 0, a holder at tick 1020
	// and a chain on tick 1024 both file on level 1; a short RunUntil parks
	// the cursor on the holder, so a second chain for tick 1024 files on
	// level 0; cancels hit both; the final Run gathers the two in one
	// advance, tick 1024 being the start of the level-1 bucket's block.
	casc := []uint64{1017*8<<8 | 2, op0(3 << 13)}
	for i := 0; i < 60; i++ {
		casc = append(casc, op0(7<<13+i*131%8192))
	}
	casc = append(casc, 8<<8|2)
	for i := 0; i < 60; i++ {
		casc = append(casc, op0(6<<13+i*197%8192))
	}
	for i := 0; i < 20; i++ {
		casc = append(casc, uint64(6*i)<<8|3)
	}
	f.Add(mk(casc...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*512 {
			return // bound the program length
		}
		eng := New()
		type rec struct {
			at       Time
			order    int // schedule order, the tie-break oracle
			canceled bool
			fired    bool
			h        Event
		}
		var scheduled []*rec
		var fired []*rec
		for i := 0; i+2 < len(data); i += 3 {
			op := data[i] & 3
			arg := Time(le.Uint16(data[i+1 : i+3]))
			switch op {
			case 0:
				r := &rec{order: len(scheduled)}
				r.at = eng.Now() + arg
				r.h = eng.Schedule(r.at, func() {
					r.fired = true
					fired = append(fired, r)
				})
				scheduled = append(scheduled, r)
			case 1:
				// Scale into coarse levels and (for large args) past the
				// wheel horizon so overflow migration is exercised too.
				r := &rec{order: len(scheduled)}
				r.at = eng.Now() + arg<<23
				r.h = eng.Schedule(r.at, func() {
					r.fired = true
					fired = append(fired, r)
				})
				scheduled = append(scheduled, r)
			case 2:
				eng.RunUntil(eng.Now() + arg<<10)
			case 3:
				if len(scheduled) > 0 {
					r := scheduled[int(arg)%len(scheduled)]
					if !r.fired && !r.canceled {
						eng.Cancel(r.h)
						r.canceled = true
					}
				}
			}
		}
		eng.Run()

		// Oracle 1: everything live fired, nothing canceled fired.
		nLive := 0
		for _, r := range scheduled {
			if r.canceled {
				if r.fired {
					t.Fatalf("canceled event (at %v, order %d) fired", r.at, r.order)
				}
				continue
			}
			nLive++
			if !r.fired {
				t.Fatalf("live event (at %v, order %d) never fired", r.at, r.order)
			}
		}
		if len(fired) != nLive {
			t.Fatalf("fired %d events, scheduled %d live", len(fired), nLive)
		}
		// Oracle 2: global firing order is strict (at, schedule order).
		// Schedule panics on at < now, so every later-scheduled event has
		// at >= all previously fired ats and the global order is total.
		for i := 1; i < len(fired); i++ {
			a, b := fired[i-1], fired[i]
			if a.at > b.at || (a.at == b.at && a.order > b.order) {
				t.Fatalf("firing order violated at step %d: (at=%v order=%d) before (at=%v order=%d)",
					i, a.at, a.order, b.at, b.order)
			}
		}
		if eng.Pending() != 0 {
			t.Fatalf("engine still pending %d after Run", eng.Pending())
		}
	})
}

// FuzzReadyRunOrder fuzzes the ready-run sort: the insertion budget, the
// run split and the merges, and pdqsort behind them, which takes hundreds
// of runs to reach: inputs the fuzzer grows, not its seeds, kept short
// because the fuzzer minimizes every long input it finds. Each 4-byte
// record of the input is an event — a sub-tick offset, a signed tie-break
// priority and a flags byte. Its tick is 1024, or with laterFlag 1025 plus
// the flags' top five bits, in the same level-1 block. Early events are
// filed at time 0 on level 1, the rest from a callback at tick 1020 on
// level 0. The cursor's advance to tick 1024 cascades the level-1 chain:
// its tick-1024 events join the level-0 chain's in one ready run (with no
// early event, a plain one-tick chain), and its later ones are re-filed
// onto level 0 behind the late events already there. Flagged events are
// canceled once filed. The oracle is firingRef: every live event fires, in
// (at, prio, seq) order.
func FuzzReadyRunOrder(f *testing.F) {
	const (
		target     = 1024 // a level-1 block start
		cancelFlag = 1
		earlyFlag  = 2
		laterFlag  = 4
	)
	rec := func(off uint16, prio int8, flags byte) []byte {
		return []byte{byte(off), byte(off >> 8), byte(prio), flags}
	}
	var phase, casc, desc, shuf []byte
	for i := 0; i < 96; i++ {
		// Phase-locked: a tie group with an ascending stray every third.
		if i%3 == 2 {
			phase = append(phase, rec(uint16(i*85), int8(i/3), 0)...)
		} else {
			phase = append(phase, rec(4096, 0, 0)...)
		}
		// Cascaded: the same instants filed early and late, some canceled,
		// a third of them on four later ticks.
		var flags byte
		if i%2 == 0 {
			flags |= earlyFlag
		}
		if i%11 == 0 {
			flags |= cancelFlag
		}
		if i%3 == 1 {
			flags |= laterFlag | byte(i%4)<<3
		}
		casc = append(casc, rec(uint16(i*131%8192), 0, flags)...)
		desc = append(desc, rec(uint16(8000-80*i), int8(i%3), 0)...)
		flags = 0
		if i%3 == 0 {
			flags |= earlyFlag
		}
		if i%13 == 0 {
			flags |= cancelFlag
		}
		shuf = append(shuf, rec(uint16(i*7919%8192), int8(i*37), flags)...)
	}
	f.Add(phase)
	f.Add(casc)
	f.Add(desc)
	f.Add(shuf)
	f.Add(rec(5, -3, earlyFlag|laterFlag))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*2048 {
			return // bound the chain length
		}
		eng := New()
		ref := &firingRef{}
		var handles []Event // parallel to ref.evs
		var cancel []bool   // likewise
		// fileAll files the early or the late records, then cancels the
		// flagged ones among them.
		fileAll := func(early bool) {
			first := len(handles)
			for i := 0; i+4 <= len(data); i += 4 {
				rec := data[i : i+4]
				flags := rec[3]
				if (flags&earlyFlag != 0) != early {
					continue
				}
				tick := Time(target)
				if flags&laterFlag != 0 {
					tick += 1 + Time(flags>>3)
				}
				at := tick<<tickShift + Time(binary.LittleEndian.Uint16(rec))%tickNs
				prio := Time(int8(rec[2]))
				handles = append(handles, eng.scheduleFunc(at, prio, ref.add(at, prio)))
				cancel = append(cancel, flags&cancelFlag != 0)
			}
			for k := first; k < len(handles); k++ {
				if cancel[k] {
					eng.Cancel(handles[k])
					ref.evs[k].canceled = true
				}
			}
		}
		fileAll(true)
		eng.Schedule(Time(target-4)<<tickShift, func() { fileAll(false) })
		eng.Run()
		ref.check(t)
		if eng.Pending() != 0 {
			t.Fatalf("engine still pending %d after Run", eng.Pending())
		}
	})
}
