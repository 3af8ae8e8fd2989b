package overlay

import (
	"testing"

	"repro/internal/snap"
)

// stanza returns t as Snapshot writes it, framed as one record.
func stanza(tb testing.TB, t *Tree) []byte {
	tb.Helper()
	w := snap.NewWriterSize(1, 0)
	w.Begin(1)
	t.Snapshot(w, nil)
	w.End()
	b, err := w.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// record returns a reader positioned at the start of blob's one record.
func record(tb testing.TB, blob []byte) snap.Reader {
	tb.Helper()
	r, _, err := snap.NewReader(blob)
	if err != nil {
		tb.Fatal(err)
	}
	if _, ok := r.Next(); !ok {
		tb.Fatal("no record")
	}
	return *r
}

// TestSnapshotScratchAllocFree: Snapshot, given scratch with room for one
// parent per member, allocates nothing, for every strategy's tree.
func TestSnapshotScratchAllocFree(t *testing.T) {
	const members = 300
	net := network(members+20, 7)
	for _, name := range StrategyNames() {
		tr, err := MustStrategy(name).Build(net, allMembers(members), 0, Config{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		w := snap.NewWriterSize(1, 32*len(stanza(t, tr)))
		w.Begin(1)
		scratch := make([]int32, 0, len(tr.Members))
		if n := testing.AllocsPerRun(20, func() { scratch = tr.Snapshot(w, scratch) }); n != 0 {
			t.Errorf("%s: Snapshot with scratch for every member allocates %.1f objects", name, n)
		}
	}
}
