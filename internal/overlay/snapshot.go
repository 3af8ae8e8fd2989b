package overlay

import (
	"fmt"
	"sort"

	"repro/internal/snap"
)

// Checkpoint support. A tree serializes as its member list plus its edge
// lists: parents in ascending order, each parent's children in child-
// slice order. Restoring writes exactly the entries setParent would have,
// so the rebuilt maps match the originals — including the child-slice
// orderings the session's compiled forwarding fan-out depends on, and the
// absent parent entries that mark detached subtree roots.

// Snapshot appends the tree's full structure to the open record.
func (t *Tree) Snapshot(w *snap.Writer) {
	w.I64(int64(t.Source))
	w.Len(len(t.Members))
	for _, m := range t.Members {
		w.I64(int64(m))
	}
	parents := make([]int, 0, len(t.child))
	for p := range t.child {
		parents = append(parents, p)
	}
	sort.Ints(parents)
	w.Len(len(parents))
	for _, p := range parents {
		w.I64(int64(p))
		w.Len(len(t.child[p]))
		for _, c := range t.child[p] {
			w.I64(int64(c))
		}
	}
}

// RestoreTree rebuilds a tree written by Snapshot over hosts [0, numHosts).
// The bytes may not be ours: an id outside that range, a second parent for
// one node, a parent for the source or a parent listed out of ascending
// order fails the reader (and ends the decode) instead of reaching
// setParent's panics or, later, a per-host slice index. The maps are made
// at their final size and the child lists carved from one array — each
// capacity-capped, so a later graft appends off it — where replaying the
// edges through setParent grew every one of them by doubling.
func RestoreTree(r *snap.Reader, numHosts int) *Tree {
	id := func(what string) int {
		v := int(r.I64())
		if r.Err() == nil && (v < 0 || v >= numHosts) {
			r.Fail(fmt.Errorf("overlay: snapshot tree %s %d outside [0,%d)", what, v, numHosts))
		}
		return v
	}
	source := id("source")
	members := make([]int, r.Count(8))
	t := &Tree{
		Source:  source,
		Members: members,
		parent:  make(map[int]int, len(members)),
		member:  make(map[int]bool, len(members)),
	}
	for i := range members {
		members[i] = id("member")
		t.member[members[i]] = true
	}
	t.parent[source] = -1
	np := r.Count(8 + 4)
	t.child = make(map[int][]int, np)
	kids := snap.NewArena[int](len(members)) // every child is a member with one parent
	for i, last := 0, -1; i < np; i++ {
		p := id("parent")
		if p <= last && r.Err() == nil {
			r.Fail(fmt.Errorf("overlay: snapshot tree parent %d out of ascending order", p))
		}
		last = p
		cs := kids.Take(r.Count(8))
		for j := range cs {
			c := id("child")
			if _, dup := t.parent[c]; dup && r.Err() == nil {
				r.Fail(fmt.Errorf("overlay: snapshot tree gives host %d a second parent", c))
			}
			if r.Err() != nil {
				return t
			}
			t.parent[c] = p
			cs[j] = c
		}
		if r.Err() != nil {
			return t
		}
		t.child[p] = cs
	}
	return t
}
