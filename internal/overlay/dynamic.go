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
	"sort"

	"repro/internal/des"
	"repro/internal/topo"
)

// depthAttached returns the hop distance from the source to h and whether
// h is connected to the source at all — false for orphan subtree roots
// awaiting Repair and for every node inside such a detached subtree.
func (t *Tree) depthAttached(h int) (int, bool) {
	d, v := 0, h
	for {
		p, ok := t.parent[v]
		if !ok {
			return 0, false
		}
		if p < 0 {
			return d, true
		}
		v = p
		d++
		if d > len(t.Members) {
			panic("overlay: parent cycle")
		}
	}
}

// SubtreeHeight returns the height of the subtree rooted at h (0 for a
// leaf), following child edges only — valid for detached subtrees too.
func (t *Tree) SubtreeHeight(h int) int {
	height := 0
	level := []int{h}
	for {
		var next []int
		for _, v := range level {
			next = append(next, t.child[v]...)
		}
		if len(next) == 0 {
			return height
		}
		height++
		level = next
		if height > len(t.Members) {
			panic("overlay: child cycle")
		}
	}
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
	if _, has := t.parent[h]; has {
		return fmt.Errorf("overlay: graft of %d, which is already attached (parent %d)", h, t.parent[h])
	}
	if !t.member[parent] {
		return fmt.Errorf("overlay: graft of %d under non-member %d", h, parent)
	}
	if _, ok := t.depthAttached(parent); !ok {
		return fmt.Errorf("overlay: graft of %d under detached member %d", h, parent)
	}
	if !t.member[h] {
		t.member[h] = true
		t.Members = append(t.Members, h)
	}
	t.setParent(h, parent)
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
	if !t.member[h] {
		return nil, fmt.Errorf("overlay: prune of non-member %d", h)
	}
	p, ok := t.parent[h]
	if !ok {
		return nil, fmt.Errorf("overlay: prune of already-detached member %d", h)
	}
	siblings := t.child[p]
	for i, c := range siblings {
		if c == h {
			t.child[p] = append(siblings[:i], siblings[i+1:]...)
			break
		}
	}
	if len(t.child[p]) == 0 {
		delete(t.child, p)
	}
	delete(t.parent, h)
	delete(t.member, h)
	for i, m := range t.Members {
		if m == h {
			t.Members = append(t.Members[:i], t.Members[i+1:]...)
			break
		}
	}
	orphans := append([]int(nil), t.child[h]...)
	delete(t.child, h)
	for _, o := range orphans {
		delete(t.parent, o)
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
	if !t.member[h] {
		return fmt.Errorf("overlay: detach of non-member %d", h)
	}
	p, ok := t.parent[h]
	if !ok {
		return fmt.Errorf("overlay: detach of already-detached member %d", h)
	}
	siblings := t.child[p]
	for i, c := range siblings {
		if c == h {
			t.child[p] = append(siblings[:i], siblings[i+1:]...)
			break
		}
	}
	if len(t.child[p]) == 0 {
		delete(t.child, p)
	}
	delete(t.parent, h)
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
	vs := make(map[int]bool, len(victims))
	for _, v := range victims {
		if v == t.Source {
			return nil, fmt.Errorf("overlay: cannot prune the source %d", v)
		}
		if !t.member[v] {
			return nil, fmt.Errorf("overlay: prune of non-member %d", v)
		}
		if vs[v] {
			return nil, fmt.Errorf("overlay: duplicate victim %d", v)
		}
		vs[v] = true
	}
	// Unhook each victim from a surviving parent (victim-to-victim edges
	// disappear when the victims' own child lists are dropped below).
	for _, v := range victims {
		p, ok := t.parent[v]
		if ok && p >= 0 && !vs[p] {
			siblings := t.child[p]
			for i, c := range siblings {
				if c == v {
					t.child[p] = append(siblings[:i], siblings[i+1:]...)
					break
				}
			}
			if len(t.child[p]) == 0 {
				delete(t.child, p)
			}
		}
		delete(t.parent, v)
	}
	// Surviving children of victims lose their parent edge and become the
	// detached roots of disjoint subtrees (a deeper survivor under another
	// victim is its own root — its edge was severed too, not inherited).
	var orphans []int
	for _, v := range victims {
		for _, c := range t.child[v] {
			if !vs[c] {
				delete(t.parent, c)
				orphans = append(orphans, c)
			}
		}
		delete(t.child, v)
	}
	for _, v := range victims {
		delete(t.member, v)
	}
	n := 0
	for _, m := range t.Members {
		if !vs[m] {
			t.Members[n] = m
			n++
		}
	}
	t.Members = t.Members[:n]
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
func (t *Tree) GraftPoint(net *topo.Network, h, subHeight, maxFanout, maxHeight int) (int, error) {
	type candidate struct {
		id  int
		rtt des.Duration
		ok  bool
	}
	better := func(best candidate, id int, rtt des.Duration) bool {
		if !best.ok {
			return true
		}
		if rtt != best.rtt {
			return rtt < best.rtt
		}
		return id < best.id
	}
	var full, loose, any candidate
	for _, m := range t.Members {
		if m == h {
			continue
		}
		depth, attached := t.depthAttached(m)
		if !attached {
			continue
		}
		rtt := net.RTT(h, m)
		if better(any, m, rtt) {
			any = candidate{id: m, rtt: rtt, ok: true}
		}
		heightOK := maxHeight <= 0 || depth+1+subHeight <= maxHeight
		if heightOK && better(loose, m, rtt) {
			loose = candidate{id: m, rtt: rtt, ok: true}
		}
		fanoutOK := maxFanout <= 0 || len(t.child[m]) < maxFanout
		if heightOK && fanoutOK && better(full, m, rtt) {
			full = candidate{id: m, rtt: rtt, ok: true}
		}
	}
	switch {
	case full.ok:
		return full.id, nil
	case loose.ok:
		return loose.id, nil
	case any.ok:
		return any.id, nil
	default:
		return -1, fmt.Errorf("overlay: no attached member to graft %d under", h)
	}
}

// InSubtree reports whether h lies in the subtree rooted at root
// (including root itself), following child edges only — valid for
// detached subtrees too.
func (t *Tree) InSubtree(root, h int) bool {
	if root == h {
		return true
	}
	steps := 0
	level := []int{root}
	for len(level) > 0 {
		var next []int
		for _, v := range level {
			for _, c := range t.child[v] {
				if c == h {
					return true
				}
				next = append(next, c)
			}
		}
		level = next
		steps++
		if steps > len(t.Members) {
			panic("overlay: child cycle")
		}
	}
	return false
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
	if !t.member[h] {
		return fmt.Errorf("overlay: reparent of non-member %d", h)
	}
	old, ok := t.parent[h]
	if !ok {
		return fmt.Errorf("overlay: reparent of detached member %d", h)
	}
	if newParent == old {
		return fmt.Errorf("overlay: reparent of %d under its current parent %d", h, old)
	}
	if !t.member[newParent] {
		return fmt.Errorf("overlay: reparent of %d under non-member %d", h, newParent)
	}
	if _, attached := t.depthAttached(newParent); !attached {
		return fmt.Errorf("overlay: reparent of %d under detached member %d", h, newParent)
	}
	if t.InSubtree(h, newParent) {
		return fmt.Errorf("overlay: reparent of %d under its own descendant %d", h, newParent)
	}
	siblings := t.child[old]
	for i, c := range siblings {
		if c == h {
			t.child[old] = append(siblings[:i], siblings[i+1:]...)
			break
		}
	}
	if len(t.child[old]) == 0 {
		delete(t.child, old)
	}
	t.parent[h] = newParent
	t.child[newParent] = append(t.child[newParent], h)
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
