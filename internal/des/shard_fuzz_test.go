package des

import (
	"sort"
	"testing"
)

// FuzzMailboxDrain drives the mailbox→pending→release machinery with
// randomized record batches and randomized epoch windows, and checks the
// delivered order per destination against the strict (at, lamport,
// srcShard, seq) total order applied directly to the injected records —
// the determinism oracle the whole sharded engine rests on. Records are
// injected into the outboxes directly (bypassing PostPayload's lookahead
// validation) so the fuzzer controls every key field, including exact
// (at, lamport) ties across sources, and windows are cut at arbitrary
// points so ties can land in different release batches. The records reach
// the pending buffers in two drains, so the second merges into a non-empty
// buffer, and after each the buffer is checked against a full sort.
func FuzzMailboxDrain(f *testing.F) {
	f.Add([]byte{0, 1, 3, 1, 1, 2, 3, 1, 2, 0, 3, 1, 4, 9})
	f.Add([]byte{0, 1, 1, 0, 1, 0, 1, 0, 0, 2, 1, 0, 1})
	f.Add([]byte{2, 0, 15, 131, 1, 2, 15, 131, 0, 1, 15, 3, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		const nsh = 3
		engines := make([]*Engine, nsh)
		for i := range engines {
			engines[i] = New()
		}
		la := make([][]Duration, nsh)
		for i := range la {
			la[i] = make([]Duration, nsh)
			for j := range la[i] {
				if i != j {
					la[i][j] = 1
				}
			}
		}
		c := NewCoordinatorMatrix[int](engines, la)
		type delivery struct{ dst, idx int }
		var log []delivery
		c.OnDeliver(func(dst, idx int) { log = append(log, delivery{dst, idx}) })

		// Inject: 4 bytes per record → (src, dst, at, lamport). seq stays
		// per-src monotone, as PostPayload guarantees.
		dsts := make([]int, 0, 64)
		recs := make([]rec[int], 0, 64)
		i := 0
		checkedDrain := func() {
			c.drain()
			for d := 0; d < nsh; d++ {
				mergeOracle(t, c, d)
			}
		}
		for half := min(len(data)/8, 32); i+3 < len(data) && len(recs) < 64; i += 4 {
			if i/4 == half {
				checkedDrain()
			}
			src := int(data[i]) % nsh
			dst := int(data[i+1]) % nsh
			if src == dst {
				continue
			}
			at := Time(1 + int(data[i+2])%16)
			c.seq[src]++
			r := rec[int]{
				at:      at,
				lamport: Time(int(data[i+3]&0x7f)) % at,
				seq:     c.seq[src],
				src:     int32(src),
				payload: len(recs),
			}
			c.outbox[src][dst] = append(c.outbox[src][dst], r)
			dsts = append(dsts, dst)
			recs = append(recs, r)
		}
		checkedDrain()

		// Release in randomized increasing windows, draining between them
		// as the barrier loop would (a no-op on empty mailboxes, but it
		// must not disturb the pending order).
		bound := Time(0)
		for ; i < len(data); i++ {
			bound += Time(1 + int(data[i])%8)
			for d := 0; d < nsh; d++ {
				c.release(d, bound)
				engines[d].RunBefore(bound)
			}
			c.drain()
		}
		const final = Time(64)
		for d := 0; d < nsh; d++ {
			c.release(d, final)
			engines[d].RunBefore(final)
		}

		// Oracle: each destination must see exactly its records, in the
		// strict total order, regardless of how the windows were cut.
		for d := 0; d < nsh; d++ {
			var want []int // record indices bound for d
			for idx, dst := range dsts {
				if dst == d {
					want = append(want, idx)
				}
			}
			sort.SliceStable(want, func(a, b int) bool {
				return recCmp(&recs[want[a]], &recs[want[b]]) < 0
			})
			var got []int
			for _, dl := range log {
				if dl.dst == d {
					got = append(got, dl.idx)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("dst %d delivered %d records, injected %d", d, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("dst %d position %d: delivered record %d, oracle says %d\n got %v\nwant %v",
						d, k, got[k], want[k], got, want)
				}
			}
		}
	})
}
