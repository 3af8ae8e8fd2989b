package overlay

// The one walk every control-plane candidate scan reads. A graft point,
// a repair's graft point and a re-optimization rewire all ask the same
// question — which attached member, under a fanout rule and the Lemma 2
// height rule, minimises some key — so they share one breadth-first pass
// from the source over the slot arrays, which hands each visited member
// its depth, child count and (on request) tree-path latency, and one
// selector over what it visited. A graft costs O(attached members) slice
// reads: no hashing, no per-candidate climb to the source, no allocation
// once the tree's scratch has grown to its peak membership.

import (
	"cmp"

	"repro/internal/des"
	"repro/internal/topo"
)

// walkBuf is a walk's scratch: the visit queue and per-slot results.
type walkBuf struct {
	queue []int32        // visited slots, in visit order
	depth []int32        // slot → hops below the walk's start
	lat   []des.Duration // slot → tree-path latency from the start (net walks only)
}

// walk visits the subtree under slot from breadth-first, never entering
// the subtree rooted at slot skip, and returns the visited slots in visit
// order — so depth never decreases along it. For each visited slot s,
// w.depth[s] holds its hop count below from and, when net is non-nil,
// w.lat[s] its summed edge latency from from. The result aliases w.
func (t *Tree) walk(w *walkBuf, from, skip int32, net *topo.Network) []int32 {
	n := len(t.host)
	if cap(w.queue) < n {
		w.queue = make([]int32, 0, cap(t.host))
		w.depth = make([]int32, cap(t.host))
	}
	if net != nil && len(w.lat) < n {
		w.lat = make([]des.Duration, cap(t.host))
	}
	q := append(w.queue[:0], from)
	w.depth[from] = 0
	if net != nil {
		w.lat[from] = 0
	}
	for i := 0; i < len(q); i++ {
		v := q[i]
		d := w.depth[v] + 1
		for c := t.first[v]; c != none; c = t.next[c] {
			if c == skip {
				continue
			}
			w.depth[c] = d
			if net != nil {
				w.lat[c] = w.lat[v] + net.Latency(int(t.host[v]), int(t.host[c]))
			}
			if len(q) == n {
				panic("overlay: child cycle")
			}
			q = append(q, c)
		}
	}
	w.queue = q
	return q
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
		w := &t.scan
		for _, s := range t.walk(w, src, sk, r.Net) {
			if s == ex {
				continue
			}
			m := int(t.host[s])
			heightOK := r.MaxHeight <= 0 || int(w.depth[s])+1+r.SubHeight <= r.MaxHeight
			fits := heightOK && r.Fanout(m, int(t.kids[s]))
			if r.Strict && !fits {
				continue
			}
			var lat des.Duration
			if r.Net != nil {
				lat = w.lat[s]
			}
			k := r.Key(m, lat)
			any.offer(m, k)
			if heightOK {
				loose.offer(m, k)
			}
			if fits {
				full.offer(m, k)
			}
		}
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
