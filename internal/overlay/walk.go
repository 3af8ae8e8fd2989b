package overlay

// The one walk every control-plane scan whose key is not an RTT reads.
// spt's graft point (accumulated path delay) and a re-optimization rewire
// (predicted delay) ask the same question as the RTT-keyed graft points —
// which attached member, under a fanout rule and the Lemma 2 height rule,
// minimises some key — but their keys depend on the tree path, so no
// per-router index can order them (the RTT-keyed ones pop from the tree's
// live index, rttindex.go). They share one depth-first pass from the
// source over the slot arrays, which hands each visited member its depth,
// child count and (on request) tree-path latency, and one selector over
// what it visited: O(attached members) slice reads, no hashing, no
// per-candidate climb to the source, no scratch and no allocation.

import (
	"cmp"

	"repro/internal/des"
	"repro/internal/topo"
)

// walk calls visit for every slot of the subtree under from, depth first
// in child order, never entering the subtree rooted at slot skip, with
// its hop count below from and, when net is non-nil, its summed edge
// latency from from. It steps down by child links and back up by parent
// edges, so it needs no scratch and writes nothing: walks of one tree
// nobody mutates may run concurrently. des.Duration is an int64, so the
// running sum, which adds an edge going down and takes it off coming back,
// equals the top-down sum at every slot.
func (t *Tree) walk(from, skip int32, net *topo.Network, visit func(s int32, depth int, lat des.Duration)) {
	// skip: a child list holds skip at most once, so the slot after it is
	// not skip.
	step := func(c int32) int32 {
		if c != none && c == skip {
			return t.next[c]
		}
		return c
	}
	edge := func(p, c int32) des.Duration {
		if net == nil {
			return 0
		}
		return net.Latency(int(t.host[p]), int(t.host[c]))
	}
	s, depth, lat := from, 0, des.Duration(0)
	for n := 0; ; n++ {
		if n == len(t.host) {
			panic("overlay: child cycle")
		}
		visit(s, depth, lat)
		if c := step(t.first[s]); c != none {
			s, depth, lat = c, depth+1, lat+edge(s, c)
			continue
		}
		for ; s != from; s, depth = t.up[s], depth-1 {
			p := t.up[s]
			lat -= edge(p, s)
			if c := step(t.next[s]); c != none {
				s, lat = c, lat+edge(p, c)
				break
			}
		}
		if s == from {
			return
		}
	}
}

// height returns the greatest depth below slot from.
func (t *Tree) height(from int32) int {
	h := 0
	t.walk(from, none, nil, func(_ int32, depth int, _ des.Duration) { h = max(h, depth) })
	return h
}

// Rule is one placement decision over the attached members.
type Rule[K cmp.Ordered] struct {
	// Key ranks candidate m, whose tree-path latency from the source is
	// lat (0 unless Net is set): the lowest key wins, ties to the lower id.
	Key func(m int, lat des.Duration) K
	// Fanout reports whether m, now feeding kids children, may take one
	// more.
	Fanout func(m, kids int) bool
	// The Lemma 2 height rule: a candidate at depth d qualifies when
	// d+1+SubHeight <= MaxHeight. A non-positive MaxHeight disables it.
	SubHeight, MaxHeight int
	// Net, when set, has the walk sum tree-path latencies over it.
	Net *topo.Network
	// Strict picks only among candidates passing both rules. Otherwise
	// the rules relax in order when nothing passes — fanout first, then
	// height — so any attached candidate is a last resort.
	Strict bool
}

// pick is the running winner of one tier of a selection.
type pick[K cmp.Ordered] struct {
	id  int
	key K
	ok  bool
}

func (p *pick[K]) offer(id int, key K) {
	if !p.ok || key < p.key || (key == p.key && id < p.id) {
		*p = pick[K]{id, key, true}
	}
}

// Select returns the attached member r picks, and its key: the walk from
// the source skips the subtree rooted at host skip, and host exclude is
// never picked (-1 for neither). ok is false when nothing qualifies — no
// attached candidate at all, or under Strict none passing both rules.
// Every tier breaks ties by (key, host id), so the walk's visit order
// cannot change a choice.
func Select[K cmp.Ordered](t *Tree, exclude, skip int, r Rule[K]) (id int, key K, ok bool) {
	var full, loose, any pick[K]
	src, ex, sk := t.slotOf(t.Source), t.slotOf(exclude), t.slotOf(skip)
	if src != none && sk != src {
		t.walk(src, sk, r.Net, func(s int32, depth int, lat des.Duration) {
			if s == ex {
				return
			}
			m := int(t.host[s])
			heightOK := r.MaxHeight <= 0 || depth+1+r.SubHeight <= r.MaxHeight
			fits := heightOK && r.Fanout(m, int(t.kids[s]))
			if r.Strict && !fits {
				return
			}
			k := r.Key(m, lat)
			any.offer(m, k)
			if heightOK {
				loose.offer(m, k)
			}
			if fits {
				full.offer(m, k)
			}
		})
	}
	switch {
	case full.ok:
		return full.id, full.key, true
	case loose.ok:
		return loose.id, loose.key, true
	case any.ok:
		return any.id, any.key, true
	default:
		return -1, key, false
	}
}
