// Package overlay builds and measures the end-host multicast trees of the
// paper's evaluation: DSCT (the location-aware hierarchy-and-cluster tree
// of ref [14]), NICE (the location-blind hierarchical clustering of ref
// [8]), their capacity-aware variants (cluster sizes capped by host output
// capacity, the Fig. 1 scheme), and a flat degree-bounded capacity-aware
// tree for small examples.
package overlay

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/des"
	"repro/internal/topo"
)

// Tree is a source-rooted multicast delivery tree over a set of member
// hosts. Packets flow from the source along parent→child edges; each edge
// is one overlay hop (one underlay unicast path).
//
// Per-member state lives in slot-indexed slices: every member owns one
// slot, its child list is a chain of slots (first child, next sibling) in
// child order, and the only map is the host→slot index, read once per API
// argument and never inside a walk. A pruned member's slot is recycled by
// the next new one, so the slices stay at the group's peak membership.
//
// A Tree is not safe for concurrent use: GraftPoint and the strategies'
// graft points build and write the tree's live RTT index. The other reads
// (Height, SubtreeHeight, Select, Validate, EachParent, Clone, Snapshot,
// Check, ...) touch no shared state, so a tree nobody mutates may be
// measured, searched, cloned, serialized and checked concurrently — which
// is how every session reads its blueprint's trees until it first edits
// one.
type Tree struct {
	Source  int
	Members []int

	slot  map[int]int32 // host id → slot
	host  []int32       // slot → host id; -1 for a free slot
	up    []int32       // slot → parent slot; none for the source, cut for no edge
	first []int32       // slot → first child slot, or none
	next  []int32       // slot → next sibling slot, or none
	kids  []int32       // slot → child count
	free  []int32       // released slots, reused before the slices grow
	// live is the RTT index the RTT-keyed graft points build on first use
	// and pop from (nil until then). Only the churn, fault and
	// re-optimization planes call those, and only on a tree the session
	// has made its own: the blueprint's trees, which sessions share, never
	// hold one.
	live *liveIndex
}

// Slot sentinels.
const (
	none int32 = -1 // no slot: the end of a child list, the source's parent
	cut  int32 = -2 // the parent of a member with no edge (a detached root) or of a free slot
)

// newTree returns a tree of members with no edges but the source's root
// mark, or an error when a member is listed twice. The source must be a
// member (checkMembership).
func newTree(source int, members []int) (*Tree, error) {
	t := &Tree{
		Source:  source,
		Members: append([]int(nil), members...),
		slot:    make(map[int]int32, len(members)),
	}
	t.carve(len(members))
	for _, m := range members {
		if _, dup := t.slot[m]; dup {
			return nil, fmt.Errorf("overlay: duplicate member %d", m)
		}
		t.add(m)
	}
	src, ok := t.slot[source]
	if !ok {
		panic(fmt.Sprintf("overlay: source %d not a member", source))
	}
	t.up[src] = none
	return t, nil
}

// carve gives the five per-slot slices room for n slots out of one array.
// Each window is capacity-capped, so growing past n moves that slice off
// the array instead of into its neighbour.
func (t *Tree) carve(n int) {
	a := make([]int32, 5*n)
	t.host, t.up, t.first, t.next, t.kids = a[:0:n], a[n:n:2*n], a[2*n:2*n:3*n], a[3*n:3*n:4*n], a[4*n:4*n:5*n]
}

// add gives new member h a slot with no edges.
func (t *Tree) add(h int) int32 {
	var s int32
	if n := len(t.free); n > 0 {
		s = t.free[n-1]
		t.free = t.free[:n-1]
		t.host[s], t.up[s], t.first[s], t.next[s], t.kids[s] = int32(h), cut, none, none, 0
	} else {
		s = int32(len(t.host))
		t.host = append(t.host, int32(h))
		t.up = append(t.up, cut)
		t.first = append(t.first, none)
		t.next = append(t.next, none)
		t.kids = append(t.kids, 0)
	}
	t.slot[h] = s
	t.index(s)
	return s
}

// release frees the slot of departed member s, whose edges are gone.
func (t *Tree) release(s int32) {
	t.unindex(s)
	delete(t.slot, int(t.host[s]))
	t.host[s], t.up[s], t.first[s], t.next[s], t.kids[s] = -1, cut, none, none, 0
	t.free = append(t.free, s)
}

// slotOf returns h's slot, or none for a non-member.
func (t *Tree) slotOf(h int) int32 {
	if s, ok := t.slot[h]; ok {
		return s
	}
	return none
}

// link appends slot c, which has no parent edge, to p's child list.
func (t *Tree) link(c, p int32) {
	t.up[c], t.next[c] = p, none
	if v := t.first[p]; v == none {
		t.first[p] = c
	} else {
		for t.next[v] != none {
			v = t.next[v]
		}
		t.next[v] = c
	}
	t.kids[p]++
}

// unlink severs slot c's parent edge, leaving c a detached subtree root.
func (t *Tree) unlink(c int32) {
	p := t.up[c]
	if t.first[p] == c {
		t.first[p] = t.next[c]
	} else {
		v := t.first[p]
		for t.next[v] != c {
			v = t.next[v]
		}
		t.next[v] = t.next[c]
	}
	t.up[c], t.next[c] = cut, none
	t.kids[p]--
}

func (t *Tree) setParent(node, parent int) {
	if node == t.Source {
		panic("overlay: cannot assign a parent to the source")
	}
	c := t.slot[node]
	if t.up[c] != cut {
		panic(fmt.Sprintf("overlay: host %d assigned two parents", node))
	}
	t.link(c, t.slot[parent])
}

// climb follows parent edges from slot s and returns its hop count and
// whether the chain reaches the source — false for a detached subtree root
// and everything under it.
func (t *Tree) climb(s int32) (int, bool) {
	d := 0
	for {
		switch p := t.up[s]; p {
		case none:
			return d, true
		case cut:
			return d, false
		default:
			s = p
		}
		if d++; d > len(t.host) {
			panic("overlay: parent cycle")
		}
	}
}

// Clone returns a deep copy of the tree: a session can mutate the copy
// (churn grafts, reopt rewires, fault pruning) without touching the
// original. Child orderings are preserved exactly — forwarding fan-out
// order and the snapshot codec both depend on them — so a cloned tree is
// observably identical to a freshly built one.
func (t *Tree) Clone() *Tree {
	c := &Tree{
		Source:  t.Source,
		Members: slices.Clone(t.Members),
		slot:    maps.Clone(t.slot),
		free:    slices.Clone(t.free),
	}
	c.carve(len(t.host))
	c.host = append(c.host, t.host...)
	c.up = append(c.up, t.up...)
	c.first = append(c.first, t.first...)
	c.next = append(c.next, t.next...)
	c.kids = append(c.kids, t.kids...)
	return c
}

// Parent returns the parent of member h, or -1 for the source and for a
// member with no parent edge (ParentOf tells the two apart).
func (t *Tree) Parent(h int) int {
	p, _ := t.ParentOf(h)
	return p
}

// ParentOf returns h's parent edge and whether one exists — unlike Parent
// it distinguishes a detached member (no edge) from the source.
func (t *Tree) ParentOf(h int) (int, bool) {
	s := t.slotOf(h)
	if s == none {
		return -1, false
	}
	switch p := t.up[s]; p {
	case none:
		return -1, true
	case cut:
		return -1, false
	default:
		return int(t.host[p]), true
	}
}

// Attached reports whether member h is connected to the source. Detached
// subtree roots (and every node inside such a subtree) report false.
func (t *Tree) Attached(h int) bool {
	s := t.slotOf(h)
	if s == none {
		return false
	}
	_, ok := t.climb(s)
	return ok
}

// EachParent calls fn for every node with at least one child, passing its
// children in child order in one buffer reused from call to call (callers
// must copy to retain; the buffer is this call's own, so concurrent
// EachParent calls on one unmutated tree are safe). Iteration order is
// unspecified; callers needing determinism must not depend on it. It
// exists so a session build can flatten all child sets in O(edges)
// instead of probing every (host, group) pair.
func (t *Tree) EachParent(fn func(parent int, children []int)) {
	buf := make([]int, 0, t.MaxFanout())
	for p, n := range t.kids {
		if n == 0 {
			continue
		}
		buf = buf[:0]
		for c := t.first[p]; c != none; c = t.next[c] {
			buf = append(buf, int(t.host[c]))
		}
		fn(int(t.host[p]), buf)
	}
}

// Size returns the number of members.
func (t *Tree) Size() int { return len(t.Members) }

// Depth returns the number of overlay hops from the source to member h.
// It panics for a non-member or a member cut off from the source: such a
// host has no depth.
func (t *Tree) Depth(h int) int {
	s := t.slotOf(h)
	if s == none {
		panic(fmt.Sprintf("overlay: depth of non-member %d", h))
	}
	d, ok := t.climb(s)
	if !ok {
		panic(fmt.Sprintf("overlay: depth of detached member %d", h))
	}
	return d
}

// Height returns the maximum depth over the members attached to the
// source — the paper's tree height minus one (a tree of H layers has
// height H−1 hops). While a partition has severed subtrees, it measures
// the attached part.
func (t *Tree) Height() int {
	src := t.slotOf(t.Source)
	if src == none {
		return 0
	}
	return t.height(src)
}

// Layers returns the layer count the paper's Tables I–III report:
// Height() + 1.
func (t *Tree) Layers() int { return t.Height() + 1 }

// MaxFanout returns the largest child count of any member.
func (t *Tree) MaxFanout() int {
	max := 0
	for _, n := range t.kids {
		if int(n) > max {
			max = int(n)
		}
	}
	return max
}

// AvgFanout returns the mean child count over forwarding (non-leaf)
// members, or 0 for a single-member tree.
func (t *Tree) AvgFanout() float64 {
	total, parents := 0, 0
	for _, n := range t.kids {
		if n > 0 {
			total += int(n)
			parents++
		}
	}
	if parents == 0 {
		return 0
	}
	return float64(total) / float64(parents)
}

// Validate checks the tree spans exactly its member set with no cycles and
// every parent edge internal to the membership.
func (t *Tree) Validate() error {
	seen := make([]bool, len(t.host))
	for _, m := range t.Members {
		s := t.slotOf(m)
		if s == none {
			return fmt.Errorf("overlay: member %d missing from the slot index", m)
		}
		if seen[s] {
			return fmt.Errorf("overlay: duplicate member %d", m)
		}
		seen[s] = true
	}
	if len(t.slot) != len(t.Members) {
		return fmt.Errorf("overlay: slot index holds %d hosts for %d members", len(t.slot), len(t.Members))
	}
	src := t.slotOf(t.Source)
	if src == none {
		return fmt.Errorf("overlay: source %d not a member", t.Source)
	}
	for _, m := range t.Members {
		s := t.slotOf(m)
		p := t.up[s]
		switch {
		case p == cut:
			return fmt.Errorf("overlay: member %d detached", m)
		case s == src && p != none:
			return fmt.Errorf("overlay: source has parent %d", t.host[p])
		case s != src && (p == none || !seen[p]):
			return fmt.Errorf("overlay: member %d has foreign parent slot %d", m, p)
		}
		// Climb to the root to prove reachability (convert a cycle into an
		// error rather than climb's panic).
		for steps := 0; t.up[s] >= 0; steps++ {
			if steps > len(t.Members) {
				return fmt.Errorf("overlay: cycle through member %d", m)
			}
			s = t.up[s]
		}
		if s != src {
			return fmt.Errorf("overlay: member %d roots at %d, not the source", m, t.host[s])
		}
	}
	return nil
}

// PathLatency returns the summed underlay propagation delay from the
// source to member h along tree edges. Like Depth, it panics for a host
// with no path from the source.
func (t *Tree) PathLatency(net *topo.Network, h int) des.Duration {
	t.Depth(h) // refuses a non-member or a detached member
	var total des.Duration
	for s := t.slot[h]; t.up[s] >= 0; s = t.up[s] {
		total += net.Latency(int(t.host[t.up[s]]), int(t.host[s]))
	}
	return total
}

// Stretch returns the mean ratio of tree path latency to direct unicast
// latency over all non-source members (RMP/stretch metric).
func (t *Tree) Stretch(net *topo.Network) float64 {
	var sum float64
	n := 0
	for _, m := range t.Members {
		if m == t.Source {
			continue
		}
		direct := net.Latency(t.Source, m)
		if direct <= 0 {
			continue
		}
		sum += float64(t.PathLatency(net, m)) / float64(direct)
		n++
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// LinkStress counts, for each directed backbone link, how many overlay
// edges route across it, returning the maximum and mean over used links.
func (t *Tree) LinkStress(net *topo.Network) (max int, avg float64) {
	type edge struct{ a, b topo.NodeID }
	stress := make(map[edge]int)
	for _, m := range t.Members {
		p, ok := t.ParentOf(m)
		if !ok || p < 0 {
			continue
		}
		path := net.RouterPath(p, m)
		for i := 0; i+1 < len(path); i++ {
			stress[edge{path[i], path[i+1]}]++
		}
	}
	if len(stress) == 0 {
		return 0, 0
	}
	total := 0
	for _, s := range stress {
		total += s
		if s > max {
			max = s
		}
	}
	return max, float64(total) / float64(len(stress))
}

// rttCentroid returns the member of cluster minimising total RTT to the
// others — NICE's "graph-theoretic centre" leader rule. Ties break by id.
func rttCentroid(net *topo.Network, cluster []int) int {
	best, bestCost := -1, des.Duration(0)
	for _, c := range cluster {
		var cost des.Duration
		for _, o := range cluster {
			cost += net.RTT(c, o)
		}
		if best < 0 || cost < bestCost || (cost == bestCost && c < best) {
			best, bestCost = c, cost
		}
	}
	return best
}
