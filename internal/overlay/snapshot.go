package overlay

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/snap"
)

// Checkpoint support. A tree serializes as its member list plus its edge
// lists: parents in ascending host order, each parent's children in child
// order — host ids throughout, so the layout does not depend on which slot
// a member happens to hold. Restoring links exactly those edges, so the
// rebuilt tree matches the original, including the child orderings the
// session's compiled forwarding fan-out depends on and the absent parent
// edges that mark detached subtree roots.

// Snapshot appends the tree's full structure to the open record. It sorts
// the tree's parents in scratch and returns it, grown if it had to grow,
// for the next tree's: scratch with room for one parent per member spares
// the sort an allocation. The tree itself is only read.
func (t *Tree) Snapshot(w *snap.Writer, scratch []int32) []int32 {
	w.I64(int64(t.Source))
	w.Len(len(t.Members))
	for _, m := range t.Members {
		w.I64(int64(m))
	}
	parents := scratch[:0]
	for p, k := range t.kids {
		if k > 0 {
			parents = append(parents, int32(p))
		}
	}
	slices.SortFunc(parents, func(a, b int32) int { return cmp.Compare(t.host[a], t.host[b]) })
	w.Len(len(parents))
	for _, p := range parents {
		w.I64(int64(t.host[p]))
		w.Len(int(t.kids[p]))
		for c := t.first[p]; c != none; c = t.next[c] {
			w.I64(int64(t.host[c]))
		}
	}
	return parents
}

// RestoreTree reconstructs a tree written by Snapshot over hosts [0, numHosts).
// The bytes may not be ours: an id outside that range, a source or an
// edge endpoint outside the member list, a second parent for one node, a
// parent for the source or a parent listed out of ascending order fails
// the reader (and ends the decode) instead of reaching a panic or, later,
// a per-host slice index. The slot index is made at its final size and the
// slot slices carved from one array.
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
	t := &Tree{Source: source, Members: members, slot: make(map[int]int32, len(members))}
	t.carve(len(members))
	member := func(what string, h int) int32 {
		s := t.slotOf(h)
		if s == none && r.Err() == nil {
			r.Fail(fmt.Errorf("overlay: snapshot tree %s %d is not a member", what, h))
		}
		return s
	}
	for i := range members {
		members[i] = id("member")
		if r.Err() != nil {
			return t
		}
		if _, dup := t.slot[members[i]]; !dup {
			t.add(members[i])
		}
	}
	src := member("source", source)
	if r.Err() != nil {
		return t
	}
	t.up[src] = none
	np := r.Count(8 + 4)
	for i, last := 0, -1; i < np; i++ {
		p := id("parent")
		if p <= last && r.Err() == nil {
			r.Fail(fmt.Errorf("overlay: snapshot tree parent %d out of ascending order", p))
		}
		last = p
		ps := member("parent", p)
		tail := none
		for j, n := 0, r.Count(8); j < n; j++ {
			c := member("child", id("child"))
			if r.Err() == nil && c == ps {
				r.Fail(fmt.Errorf("overlay: snapshot tree makes host %d its own parent", p))
			}
			if r.Err() == nil && t.up[c] != cut {
				r.Fail(fmt.Errorf("overlay: snapshot tree gives host %d a second parent", t.host[c]))
			}
			if r.Err() != nil {
				return t
			}
			t.up[c] = ps
			if tail == none {
				t.first[ps] = c
			} else {
				t.next[tail] = c
			}
			tail = c
			t.kids[ps]++
		}
		if r.Err() != nil {
			return t
		}
	}
	return t
}
