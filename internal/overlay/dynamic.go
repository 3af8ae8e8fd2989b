package overlay

// Incremental tree operations for the event-driven session control plane:
// members graft and prune mid-run, and the subtrees orphaned by a
// departing forwarder re-attach under the Lemma 2 height bound. The
// build-time invariants (single parent, membership-internal edges, no
// cycles) are re-checked incrementally here instead of only at
// construction time; genuine impossibilities (a cycle through the parent
// map) remain panics, while caller mistakes return errors.

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/topo"
)

// SubtreeHeight returns the height of the subtree rooted at h (0 for a
// leaf or a non-member), following child edges only — valid for detached
// subtrees too.
func (t *Tree) SubtreeHeight(h int) int {
	s := t.slotOf(h)
	if s == none {
		return 0
	}
	return t.height(s)
}

// Graft attaches h under parent: either a brand-new member joining the
// group, or a detached subtree root left by Prune (whose descendants stay
// members throughout). The parent must be a member attached to the
// source, which also guarantees acyclicity — a detached subtree cannot
// contain an attached node.
func (t *Tree) Graft(h, parent int) error {
	if h == t.Source {
		return fmt.Errorf("overlay: cannot graft the source %d", h)
	}
	hs := t.slotOf(h)
	if hs != none && t.up[hs] != cut {
		return fmt.Errorf("overlay: graft of %d, which is already attached (parent %d)", h, t.Parent(h))
	}
	ps := t.slotOf(parent)
	if ps == none {
		return fmt.Errorf("overlay: graft of %d under non-member %d", h, parent)
	}
	if _, ok := t.climb(ps); !ok {
		return fmt.Errorf("overlay: graft of %d under detached member %d", h, parent)
	}
	if hs == none {
		hs = t.add(h)
		t.Members = append(t.Members, h)
	}
	t.link(hs, ps)
	return nil
}

// Prune removes member h from the tree: h leaves the member set and its
// children become detached orphan subtree roots (returned in child
// order), which the caller must re-attach with Repair. Pruning the source
// is an error — a group's flow enters at its root, so the control plane
// never churns it out.
func (t *Tree) Prune(h int) ([]int, error) {
	if h == t.Source {
		return nil, fmt.Errorf("overlay: cannot prune the source %d", h)
	}
	s := t.slotOf(h)
	if s == none {
		return nil, fmt.Errorf("overlay: prune of non-member %d", h)
	}
	if t.up[s] == cut {
		return nil, fmt.Errorf("overlay: prune of already-detached member %d", h)
	}
	t.unlink(s)
	var orphans []int
	for c := t.first[s]; c != none; {
		nx := t.next[c]
		t.up[c], t.next[c] = cut, none
		orphans = append(orphans, int(t.host[c]))
		c = nx
	}
	t.release(s)
	if i := slices.Index(t.Members, h); i >= 0 {
		t.Members = slices.Delete(t.Members, i, i+1)
	}
	return orphans, nil
}

// Detach severs the parent edge of attached member h, leaving h as a
// detached subtree root; h and its descendants stay members throughout —
// the partition primitive: a severed subtree keeps its internal shape and
// re-attaches wholesale (Graft of the root) at the heal.
func (t *Tree) Detach(h int) error {
	if h == t.Source {
		return fmt.Errorf("overlay: cannot detach the source %d", h)
	}
	s := t.slotOf(h)
	if s == none {
		return fmt.Errorf("overlay: detach of non-member %d", h)
	}
	if t.up[s] == cut {
		return fmt.Errorf("overlay: detach of already-detached member %d", h)
	}
	t.unlink(s)
	return nil
}

// PruneAll removes a whole batch of members in one step — a correlated
// failure (domain outage, mass leave) taking out many forwarders at the
// same DES instant. Victims may be attached or detached; edges between two
// victims vanish with them. It returns the surviving subtree roots newly
// detached by the removal, sorted ascending by host id.
//
// That ascending order is the pinned batch-repair order: RepairWith
// processes orphans in input order (earlier re-attached subtrees become
// candidates for later ones), and sessions repair mass-failure orphans in
// exactly this order at every shard count, which is what keeps their runs
// bit-identical. Do not reorder.
func (t *Tree) PruneAll(victims []int) ([]int, error) {
	if len(victims) == 0 {
		return nil, nil
	}
	sorted := slices.Sorted(slices.Values(victims))
	slots := make([]int32, len(victims))
	for i, v := range victims {
		if v == t.Source {
			return nil, fmt.Errorf("overlay: cannot prune the source %d", v)
		}
		if slots[i] = t.slotOf(v); slots[i] == none {
			return nil, fmt.Errorf("overlay: prune of non-member %d", v)
		}
	}
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("overlay: duplicate victim %d", sorted[i])
		}
	}
	victim := func(s int32) bool {
		_, found := slices.BinarySearch(sorted, int(t.host[s]))
		return found
	}
	// Unhook each victim from a surviving parent (victim-to-victim edges
	// disappear when the victims' own slots are released below).
	for _, s := range slots {
		if p := t.up[s]; p >= 0 && !victim(p) {
			t.unlink(s)
		}
	}
	// Surviving children of victims lose their parent edge and become the
	// detached roots of disjoint subtrees (a deeper survivor under another
	// victim is its own root — its edge was severed too, not inherited).
	var orphans []int
	for _, s := range slots {
		for c := t.first[s]; c != none; {
			nx := t.next[c]
			if !victim(c) {
				t.up[c], t.next[c] = cut, none
				orphans = append(orphans, int(t.host[c]))
			}
			c = nx
		}
	}
	for _, s := range slots {
		t.release(s)
	}
	t.Members = slices.DeleteFunc(t.Members, func(m int) bool {
		_, found := slices.BinarySearch(sorted, m)
		return found
	})
	sort.Ints(orphans)
	return orphans, nil
}

// GraftPoint picks the deterministic adoption parent for a node — a fresh
// joiner, or an orphan subtree root of height subHeight: the attached
// member nearest to h by RTT (ties broken by id) whose fanout stays below
// maxFanout and whose depth keeps depth+1+subHeight within maxHeight (the
// Lemma 2 bound). When no member satisfies both constraints they relax in
// order — first fanout, then height — so a graft point always exists
// while the tree has an attached member besides h's own subtree. A
// non-positive maxFanout or maxHeight disables that constraint.
//
// The pick pops from the tree's live RTT index (nearestGraft), which the
// first call builds.
func (t *Tree) GraftPoint(net *topo.Network, h, subHeight, maxFanout, maxHeight int) (int, error) {
	return t.nearestGraft(net, h, subHeight, maxHeight, func(_, kids int) bool { return maxFanout <= 0 || kids < maxFanout })
}

// noGraftPoint is the error of a graft of h with no attached member
// besides h's own subtree to go under.
func noGraftPoint(h int) error {
	return fmt.Errorf("overlay: no attached member to graft %d under", h)
}

// InSubtree reports whether h lies in the subtree rooted at root
// (including root itself), following parent edges up from h — valid for
// detached subtrees too.
func (t *Tree) InSubtree(root, h int) bool {
	if root == h {
		return true
	}
	rs, s := t.slotOf(root), t.slotOf(h)
	if rs == none || s == none {
		return false
	}
	for steps := 0; ; steps++ {
		if s = t.up[s]; s < 0 {
			return false
		}
		if s == rs {
			return true
		}
		if steps > len(t.host) {
			panic("overlay: parent cycle")
		}
	}
}

// Reparent moves attached member h — with its whole subtree — under
// newParent: the re-optimization plane's local rewire. Unlike Prune+Graft
// it never leaves the member set or the subtree's internal edges, so a
// rewire is purely an edge swap. The new parent must be an attached
// member outside h's own subtree (which rules out cycles).
func (t *Tree) Reparent(h, newParent int) error {
	if h == t.Source {
		return fmt.Errorf("overlay: cannot reparent the source %d", h)
	}
	s := t.slotOf(h)
	if s == none {
		return fmt.Errorf("overlay: reparent of non-member %d", h)
	}
	if t.up[s] == cut {
		return fmt.Errorf("overlay: reparent of detached member %d", h)
	}
	if old := int(t.host[t.up[s]]); newParent == old {
		return fmt.Errorf("overlay: reparent of %d under its current parent %d", h, old)
	}
	ps := t.slotOf(newParent)
	if ps == none {
		return fmt.Errorf("overlay: reparent of %d under non-member %d", h, newParent)
	}
	if _, attached := t.climb(ps); !attached {
		return fmt.Errorf("overlay: reparent of %d under detached member %d", h, newParent)
	}
	if t.InSubtree(h, newParent) {
		return fmt.Errorf("overlay: reparent of %d under its own descendant %d", h, newParent)
	}
	t.unlink(s)
	t.link(s, ps)
	return nil
}

// RepairWith re-attaches the orphan subtree roots left by Prune, each
// under the parent the choose function picks for (orphan, subtree
// height), and returns the parent chosen for each orphan in input order.
// Repairing in input order is deterministic: earlier re-attached
// subtrees become candidates for later orphans. The control plane passes
// the group strategy's GraftPoint as choose, so repairs follow the rule
// that built the tree.
func (t *Tree) RepairWith(orphans []int, choose func(orphan, subHeight int) (int, error)) ([]int, error) {
	parents := make([]int, len(orphans))
	for i, o := range orphans {
		p, err := choose(o, t.SubtreeHeight(o))
		if err != nil {
			return nil, err
		}
		if err := t.Graft(o, p); err != nil {
			return nil, err
		}
		parents[i] = p
	}
	return parents, nil
}

// Repair is RepairWith under the fixed RTT-nearest graft rule of
// Tree.GraftPoint — the pre-strategy repair protocol, which the cluster
// strategies still resolve to.
func (t *Tree) Repair(net *topo.Network, orphans []int, maxFanout, maxHeight int) ([]int, error) {
	return t.RepairWith(orphans, func(o, subHeight int) (int, error) {
		return t.GraftPoint(net, o, subHeight, maxFanout, maxHeight)
	})
}
