package overlay

// The one nearest-member selection every builder shares. An overlay hop's
// RTT is not an opaque number: it is twice the sum of two access delays
// and one router-to-router delay. So the members a pivot finds nearest
// can be read off per-router lists already in access-delay order: within
// one router's list every member is the same backbone delay from the
// pivot, and the list's order is its RTT order. A query merges the lists'
// heads in a small heap keyed by RTT to the pivot, ties by id, which is
// the strict order a full sort of every member by (RTT, id) gives — at a
// cost in the routers holding members, not in the members.

import (
	"cmp"
	"slices"

	"repro/internal/des"
	"repro/internal/topo"
)

// rttEntry is one record of an rttIndex's scratch. A member entry holds
// the host's access delay, its id (^id once taken) and its router; a
// router's head in the query heap holds the head's RTT to the pivot, its
// id and the index of its member entry.
type rttEntry struct {
	key des.Duration // access delay; in the heap, RTT to the pivot
	id  int32        // host id; ^id once taken
	ref int32        // router; in the heap, the member entry's index
}

// nearer orders heap heads by RTT, ties by id: strict over distinct ids.
func (e rttEntry) nearer(o rttEntry) bool {
	return e.key < o.key || e.key == o.key && e.id < o.id
}

// rttIndex holds one layer's members not yet taken, bucketed by router.
// The members are one run sorted by (router, access delay, id), so each
// router's bucket is a window of it; a taken member stays in place,
// marked, and a bucket's head skips it. Every router with members left
// keeps one head record; a query keys the heads for its pivot, heapifies
// them and pops. Entries and heads are carved out of one slab, allocated
// once per tree build and reloaded for each layer.
type rttIndex struct {
	net   *topo.Network
	slab  []rttEntry
	ents  []rttEntry // the layer's members, sorted by (router, access delay, id)
	heads []rttEntry // one per router with members left: its first entry not known taken
	evals int        // RTTs computed: the work ledger's count
}

// newRTTIndex returns an index for layers whose members and routers
// number at most size together.
func newRTTIndex(net *topo.Network, size int) rttIndex {
	return rttIndex{net: net, slab: make([]rttEntry, size)}
}

// load makes ids, which must be distinct, the index's members.
func (x *rttIndex) load(ids []int) {
	n := len(ids)
	ents := x.slab[:n:n]
	for i, id := range ids {
		h := &x.net.Hosts[id]
		ents[i] = rttEntry{key: h.AccessDelay, id: int32(id), ref: int32(h.Router)}
	}
	slices.SortFunc(ents, byRouterAccessID)
	heads := x.slab[n:n]
	for i := range ents {
		if i == 0 || ents[i].ref != ents[i-1].ref {
			heads = append(heads, rttEntry{ref: int32(i)})
		}
	}
	x.ents, x.heads = ents, heads
}

// byRouterAccessID orders member entries by (router, access delay, id),
// taken or not.
func byRouterAccessID(a, b rttEntry) int {
	switch {
	case a.ref != b.ref:
		return int(a.ref) - int(b.ref)
	case a.key != b.key:
		return cmp.Compare(a.key, b.key)
	}
	return int(max(a.id, ^a.id)) - int(max(b.id, ^b.id))
}

// remove takes host h out of the index, reporting whether it was a
// member left in it.
func (x *rttIndex) remove(h int) bool {
	host := &x.net.Hosts[h]
	i, ok := slices.BinarySearchFunc(x.ents, rttEntry{key: host.AccessDelay, id: int32(h), ref: int32(host.Router)}, byRouterAccessID)
	if !ok || x.ents[i].id < 0 {
		return false
	}
	x.ents[i].id = ^x.ents[i].id
	return true
}

// first returns the first entry at or after e on e's router not taken,
// or -1 when the router has none left.
func (x *rttIndex) first(e int32) int32 {
	r := x.ents[e].ref
	for ; int(e) < len(x.ents) && x.ents[e].ref == r; e++ {
		if x.ents[e].id >= 0 {
			return e
		}
	}
	return -1
}

// head keys member entry e for a pivot with access delay acc whose
// router's backbone delays are delay: the sum net.RTT takes, since a
// router is 0 from itself.
func (x *rttIndex) head(e int32, acc des.Duration, delay []des.Duration) rttEntry {
	m := x.ents[e]
	x.evals++
	return rttEntry{key: 2 * (acc + delay[m.ref] + m.key), id: m.id, ref: e}
}

// take writes into dst the len(dst) members nearest pivot p by RTT, ties
// by id, nearest first, and takes them out of the index: the prefix a
// full sort of the members left by (RTT, id) starts with. p must not be
// one of the members left, and dst may hold no more than they number.
func (x *rttIndex) take(p int, dst []int) {
	if len(dst) == 0 {
		return
	}
	hp := &x.net.Hosts[p]
	acc, delay := hp.AccessDelay, x.net.Routes.Delay[hp.Router]
	h := x.heads
	for i := 0; i < len(h); {
		if e := x.first(h[i].ref); e >= 0 {
			h[i] = x.head(e, acc, delay)
			i++
		} else {
			h[i] = h[len(h)-1]
			h = h[:len(h)-1]
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftNearest(h, i)
	}
	for i := range dst {
		top := h[0]
		dst[i] = int(top.id)
		x.ents[top.ref].id = ^top.id
		if e := x.first(top.ref); e >= 0 {
			h[0] = x.head(e, acc, delay)
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftNearest(h, 0)
	}
	x.heads = h
}

// siftNearest restores the min-heap order of h below index i.
func siftNearest(h []rttEntry, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r].nearer(h[c]) {
			c = r
		}
		if !h[c].nearer(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
