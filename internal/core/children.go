package core

import "slices"

// groupChildren is one host's per-group child sets, flattened into
// parallel index arrays: groups holds the (ascending) group ids in which
// the host has at least one child, kids the matching child lists. The
// dense [][]int representation this replaces spends 24 bytes of slice
// header per (host, group) pair whether or not the host forwards that
// group — over 1 GB at 100k hosts × 512 groups — while a typical
// forwarder serves only a handful of groups. Lookups are a binary search
// over that handful.
//
// The zero value is a host with no children anywhere.
type groupChildren struct {
	groups []int32
	kids   [][]int
}

// find returns the slot index of group g, or -1.
func (gc *groupChildren) find(g int) int {
	lo, hi := 0, len(gc.groups)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(gc.groups[mid]) < g {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(gc.groups) && int(gc.groups[lo]) == g {
		return lo
	}
	return -1
}

// get returns group g's child list (nil when the host has no children in
// g). The returned slice is owned by gc; callers must not retain it
// across mutations.
func (gc *groupChildren) get(g int) []int {
	if i := gc.find(g); i >= 0 {
		return gc.kids[i]
	}
	return nil
}

// add appends child c to group g, creating g's slot (kept sorted) on
// demand; it returns the slot and whether it is new.
func (gc *groupChildren) add(g, c int) (slot int, fresh bool) {
	lo, hi := 0, len(gc.groups)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(gc.groups[mid]) < g {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(gc.groups) && int(gc.groups[lo]) == g {
		gc.kids[lo] = append(gc.kids[lo], c)
		return lo, false
	}
	gc.groups = append(gc.groups, 0)
	gc.kids = append(gc.kids, nil)
	copy(gc.groups[lo+1:], gc.groups[lo:])
	copy(gc.kids[lo+1:], gc.kids[lo:])
	gc.groups[lo] = int32(g)
	gc.kids[lo] = []int{c}
	return lo, true
}

// drop removes slot i entirely.
func (gc *groupChildren) drop(i int) {
	gc.groups = slices.Delete(gc.groups, i, i+1)
	gc.kids = slices.Delete(gc.kids, i, i+1)
}

// each calls fn for every group with children, in ascending group order —
// the same order the dense representation's index loops visited, which
// the regulator-bank creation order (and so the goldens) depends on.
func (gc *groupChildren) each(fn func(g int, kids []int)) {
	for i, g := range gc.groups {
		fn(int(g), gc.kids[i])
	}
}

// denseChildren converts a dense per-group child-list slice into the
// flattened representation (test convenience).
func denseChildren(lists [][]int) groupChildren {
	var gc groupChildren
	for g, cs := range lists {
		for _, c := range cs {
			gc.add(g, c)
		}
	}
	return gc
}
