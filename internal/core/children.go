package core

import (
	"math/bits"
	"slices"

	"repro/internal/snap"
)

// edge is one forwarded child, one per (group, child) pair: the child host
// and the slot of its connection in the forwarder's MUX table
// (forwarder.muxes), so a packet reaches its MUXes without a search.
type edge struct {
	child int32
	mux   int32
}

// groupChildren is one host's per-group child sets, flattened into
// parallel index arrays: groups holds the (ascending) group ids in which
// the host has at least one child, edges the matching edge windows. The
// dense representation this replaces spends a slice header per (host,
// group) pair whether or not the host forwards that group — over 1 GB at
// 100k hosts × 512 groups — while a typical forwarder serves only a
// handful of groups. Lookups are a binary search over that handful.
//
// The zero value is a host with no children anywhere.
type groupChildren struct {
	groups []int32
	edges  [][]edge
}

// find returns the slot index of group g, or -1.
func (gc *groupChildren) find(g int) int {
	i, ok := slices.BinarySearch(gc.groups, int32(g))
	if !ok {
		return -1
	}
	return i
}

// hasChild reports whether c is a child of the host in any group.
func (gc *groupChildren) hasChild(c int) bool {
	for _, es := range gc.edges {
		for _, e := range es {
			if int(e.child) == c {
				return true
			}
		}
	}
	return false
}

// childPlan is every host's per-group child sets, as compileChildren
// lays them out: three arenas shared by all hosts — group ids, edge-window
// headers parallel to them, and the edges those headers window — and a
// per-host offset index into the first two. Host p's slots are
// [off[p], off[p+1]), ascending by group id. A per-host groupChildren
// header array would cost 48 bytes a host; the index costs four. A session
// reads its blueprint's plan, which nothing writes, until its first edit
// of a child set compiles its own (edits.own); it edits that one through
// its forwarders' views.
type childPlan struct {
	groups []int32
	kids   [][]edge
	edges  []edge
	off    []int32
}

// of returns host id's child sets: windows of the plan's arenas,
// capacity-capped, so an edit that grows one moves it off the arena
// (blocks) instead of bleeding into the next host's slots.
func (pl *childPlan) of(id int) groupChildren {
	lo, hi := pl.off[id], pl.off[id+1]
	return groupChildren{groups: pl.groups[lo:hi:hi], edges: pl.kids[lo:hi:hi]}
}

// blocks is the storage one kind of forwarder table lives in. A build or a
// restore carves each table to size from the arena; an edit that outgrows
// a table's window moves it to a block of twice the room, from the free
// list of that size or carved, and gives the window it leaves back. Churn
// in steady state so reuses blocks instead of allocating them.
type blocks[T any] struct {
	snap.Arena[T]
	free [][][]T // free[k]: spare windows of capacity 1<<k, empty
}

// insert puts v at index i of window w, which it returns, moving w to a
// larger block when it is full.
func (b *blocks[T]) insert(w []T, i int, v T) []T {
	if len(w) == cap(w) {
		k := bits.Len(uint(max(2*len(w), 1) - 1)) // 1<<k is the power of two at or above that room
		var nw []T
		if k < len(b.free) && len(b.free[k]) > 0 {
			last := len(b.free[k]) - 1
			nw, b.free[k] = b.free[k][last], b.free[k][:last]
		} else {
			nw = b.Take(1 << k)[:0]
		}
		nw = append(nw, w...)
		b.put(w)
		w = nw
	}
	return slices.Insert(w, i, v)
}

// put gives window w back: it joins the free list of the largest power of
// two it holds, cleared so it keeps nothing alive.
func (b *blocks[T]) put(w []T) {
	if cap(w) == 0 {
		return
	}
	k := bits.Len(uint(cap(w))) - 1
	for len(b.free) <= k {
		b.free = append(b.free, nil)
	}
	w = w[:1<<k]
	clear(w)
	b.free[k] = append(b.free[k], w[:0])
}
