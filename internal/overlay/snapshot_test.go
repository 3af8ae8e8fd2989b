package overlay

import (
	"strings"
	"testing"

	"repro/internal/snap"
)

// stanza returns t as Snapshot writes it, framed as one record.
func stanza(tb testing.TB, t *Tree) []byte {
	tb.Helper()
	w := snap.NewWriterSize(1, 0)
	w.Begin(1)
	t.Snapshot(w)
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

// TestCheckIsSnapshot: Check accepts exactly the stanza Snapshot writes —
// every byte of it, allocating nothing — for every strategy, and refuses
// it on a tree that differs from the one that wrote it in its members or in
// one parent edge.
func TestCheckIsSnapshot(t *testing.T) {
	const members = 300
	net := network(members+20, 7)
	for _, name := range StrategyNames() {
		tr, err := MustStrategy(name).Build(net, allMembers(members), 0, Config{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		rec := record(t, stanza(t, tr))
		r := rec
		if tr.Check(&r); r.Err() != nil || r.Remaining() != 0 {
			t.Fatalf("%s: Check of the tree's own stanza: %v, %d bytes unread", name, r.Err(), r.Remaining())
		}
		if n := testing.AllocsPerRun(20, func() { r = rec; tr.Check(&r) }); n != 0 {
			t.Errorf("%s: Check allocates %.1f objects", name, n)
		}

		// One member more, the first child of a parent of two moved under
		// its sibling, and a leaf moved under the source.
		grown := tr.Clone()
		if err := grown.Graft(members+3, tr.Source); err != nil {
			t.Fatal(err)
		}
		nested, moved := tr.Clone(), tr.Clone()
		p, leaf := -1, -1
		for _, m := range tr.Members {
			if cs := children(tr, m); p < 0 && len(cs) >= 2 {
				p = m
				if err := nested.Reparent(cs[0], cs[1]); err != nil {
					t.Fatal(err)
				}
			}
			if leaf < 0 && len(children(tr, m)) == 0 && tr.Parent(m) != tr.Source {
				leaf = m
				if err := moved.Reparent(m, tr.Source); err != nil {
					t.Fatal(err)
				}
			}
		}
		if p < 0 || leaf < 0 {
			t.Fatalf("%s: no parent of two children or no leaf off the source", name)
		}
		for _, tc := range []struct {
			what string
			t    *Tree
			want string
		}{
			{"a member more", grown, "snapshot tree member count"},
			{"a child moved under its sibling", nested, "snapshot tree"},
			{"a leaf moved under the source", moved, "snapshot tree"},
		} {
			r := rec
			if tc.t.Check(&r); r.Err() == nil || !strings.Contains(r.Err().Error(), tc.want) {
				t.Errorf("%s: Check against a tree with %s = %v, want an error naming %q", name, tc.what, r.Err(), tc.want)
			}
		}
	}
}
