package des

import "testing"

// FuzzMailboxDrain drives the hand-off — source sort, seal, destination
// fold and release — with fuzzed record batches and fuzzed epoch windows
// through mailboxRig, whose oracle is a full sort of each destination's
// records under the strict (at, lamport, srcShard, seq) total order, the
// determinism oracle the whole sharded engine rests on. Four bytes are
// one record (src, dst, arrival past the destination's next bound, age at
// arrival), so the fuzzer controls every key field, including exact
// (at, lamport) ties across sources; a quadruple whose src and dst
// coincide is a barrier instead, its third byte the window's width and
// its fourth a mask of which destinations are live, so ties can land in
// different release batches and a destination can hold sealed records
// through several epochs in which it is not live.
func FuzzMailboxDrain(f *testing.F) {
	f.Add([]byte{0, 1, 3, 1, 1, 2, 3, 1, 2, 0, 3, 1, 4, 9})
	f.Add([]byte{0, 1, 1, 0, 1, 0, 1, 0, 0, 2, 1, 0, 1})
	f.Add([]byte{2, 0, 15, 131, 1, 2, 15, 131, 0, 1, 15, 3, 7, 7, 7})
	f.Add([]byte{0, 1, 5, 2, 2, 1, 5, 2, 1, 1, 3, 1, 0, 1, 5, 2, 2, 2, 7, 6, 1, 0, 0, 0, 0, 0, 9, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		const nsh = 3
		m := newMailboxRig(t, nsh)
		ends := make([]Time, nsh)
		for i := 0; i+3 < len(data) && len(m.recs) < 64; i += 4 {
			src, dst := int(data[i])%nsh, int(data[i+1])%nsh
			if src != dst {
				m.post(src, dst, Time(data[i+2]%16), Time(data[i+3]%8))
				continue
			}
			for d := range ends {
				ends[d] = m.bound[d]
				if data[i+3]>>d&1 != 0 {
					ends[d] += Time(1 + data[i+2]%8)
				}
			}
			m.epoch(ends)
		}
		m.flush()
	})
}
