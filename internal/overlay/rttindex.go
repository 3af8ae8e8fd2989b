package overlay

// The one nearest-member selection every builder and every RTT-keyed
// graft point shares. An overlay hop's RTT is not an opaque number: it is
// twice the sum of two access delays and one router-to-router delay. So
// the members a pivot finds nearest can be read off per-router lists
// already in access-delay order: within one router's list every member is
// the same backbone delay from the pivot, and the list's order is its RTT
// order. A query merges the lists' heads in a small heap keyed by RTT to
// the pivot, ties by id, which is the strict order a full sort of every
// member by (RTT, id) gives — at a cost in the routers holding members,
// not in the members. The builders load a layer's members into an
// rttIndex and take them out as clusters form; a tree that grafts keeps a
// liveIndex of its members through every join and leave.

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
// router's backbone delays are delay.
func (x *rttIndex) head(e int32, acc des.Duration, delay []des.Duration) rttEntry {
	m := x.ents[e]
	x.evals++
	return rttEntry{key: rttTo(acc, delay, topo.NodeID(m.ref), m.key), id: m.id, ref: e}
}

// rttTo is net.RTT from a pivot with access delay acc, whose router's
// backbone delays are delay, to another host on router r with access
// delay macc: the sum net.RTT takes, since a router is 0 from itself.
func rttTo(acc des.Duration, delay []des.Duration, r topo.NodeID, macc des.Duration) des.Duration {
	return 2 * (acc + delay[r] + macc)
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

// liveIndex is a tree's live RTT index of its members, the one every
// RTT-keyed graft point pops from. Each router's members form a bucket, a
// chain of slots in (access delay, id) order, so a query keys one head per
// router holding members, heaps the heads and pops candidates nearest
// first in the (RTT, id) order a full sort gives. Attachment is not
// indexed: a popped candidate climbs to the source for its depth, and a
// detached one fails the climb. The tree keeps the buckets current in add
// and release, so a graft of a new member, Prune and PruneAll update them
// and edge-only edits (Detach, Reparent, a heal's grafts) leave them be.
// It is derived state, built from the members by the first graft point:
// Clone and RestoreTree start without one, and a blueprint tree, which
// nothing grafts, never holds one. Its storage is one head per router and
// one link per slot, grown with the tree's slot slices, and the query's
// heap of at most one head per router.
type liveIndex struct {
	net  *topo.Network // the network the buckets are keyed by
	head []int32       // router → first slot of its bucket, or none
	link []int32       // slot → next slot in its router's bucket, or none
	heap []rttEntry    // a query's heads: RTT to the pivot, host id, slot
	// The work ledger's counts: candidates popped, and heads keyed (one
	// RTT each).
	popped, keyed int
}

// indexOver returns t's live index over net, building it from the members
// the first time (or when net is not the network it was built over).
func (t *Tree) indexOver(net *topo.Network) *liveIndex {
	if t.live != nil && t.live.net == net {
		return t.live
	}
	r := len(net.Routes.Delay)
	a := make([]int32, r+cap(t.host))
	x := &liveIndex{net: net, head: a[:r:r], link: a[r : r+len(t.host)], heap: make([]rttEntry, 0, r)}
	t.live = x
	for i := range x.head {
		x.head[i] = none
	}
	for _, m := range t.Members {
		t.index(t.slot[m])
	}
	return x
}

// index files member slot s into its router's bucket, at its (access
// delay, id) place. A tree with no index yet has nothing to keep.
func (t *Tree) index(s int32) {
	x := t.live
	if x == nil {
		return
	}
	if int(s) == len(x.link) {
		x.link = append(x.link, none)
	}
	id := t.host[s]
	h := &x.net.Hosts[id]
	p := &x.head[h.Router]
	for v := *p; v != none; v = *p {
		o := t.host[v]
		if acc := x.net.Hosts[o].AccessDelay; acc > h.AccessDelay || acc == h.AccessDelay && o > id {
			break
		}
		p = &x.link[v]
	}
	x.link[s], *p = *p, s
}

// unindex takes member slot s out of its router's bucket.
func (t *Tree) unindex(s int32) {
	x := t.live
	if x == nil {
		return
	}
	p := &x.head[x.net.Hosts[t.host[s]].Router]
	for *p != s {
		p = &x.link[*p]
	}
	*p = x.link[s]
}

// key is bucket slot s as a heap head for a pivot with access delay acc
// whose router's backbone delays are delay.
func (x *liveIndex) key(t *Tree, s int32, acc des.Duration, delay []des.Duration) rttEntry {
	id := t.host[s]
	m := &x.net.Hosts[id]
	x.keyed++
	return rttEntry{key: rttTo(acc, delay, m.Router, m.AccessDelay), id: id, ref: s}
}

// nearestGraft is every RTT-keyed graft point: the attached member other
// than h nearest h by RTT, ties by id, whose depth d keeps
// d+1+subHeight <= maxHeight (no height rule when maxHeight <= 0) and
// which fits one more child; failing that the nearest passing the height
// rule, then the nearest attached — Select's tiers. Candidates pop in
// (RTT, id) order, so the first to pass a tier is that tier's pick, and
// the pops stop at the first that passes both rules.
func (t *Tree) nearestGraft(net *topo.Network, h, subHeight, maxHeight int, fits func(m, kids int) bool) (int, error) {
	x := t.indexOver(net)
	ph := &net.Hosts[h]
	acc, delay := ph.AccessDelay, net.Routes.Delay[ph.Router]
	q := x.heap[:0]
	for _, s := range x.head {
		if s != none {
			q = append(q, x.key(t, s, acc, delay))
		}
	}
	for i := len(q)/2 - 1; i >= 0; i-- {
		siftNearest(q, i)
	}
	loose, any := -1, -1
	for len(q) > 0 {
		top := q[0]
		x.popped++
		if s := x.link[top.ref]; s != none {
			q[0] = x.key(t, s, acc, delay)
		} else {
			q[0] = q[len(q)-1]
			q = q[:len(q)-1]
		}
		siftNearest(q, 0)
		m := int(top.id)
		if m == h {
			continue
		}
		d, attached := t.climb(top.ref)
		if !attached {
			continue
		}
		if any < 0 {
			any = m
		}
		if maxHeight > 0 && d+1+subHeight > maxHeight {
			continue
		}
		if fits(m, int(t.kids[top.ref])) {
			return m, nil
		}
		if loose < 0 {
			loose = m
		}
	}
	switch {
	case loose >= 0:
		return loose, nil
	case any >= 0:
		return any, nil
	}
	return -1, noGraftPoint(h)
}
