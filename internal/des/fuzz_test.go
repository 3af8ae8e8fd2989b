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
