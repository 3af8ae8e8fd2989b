package core

// The tree-edit layer: the one place a plane changes a group's delivery
// tree while the session runs. Churn (control.go), faults (faults.go) and
// re-optimization (reopt.go) each embed an edits value and compose its
// primitives; each primitive moves the tree, the member set and the host
// wiring together, and counts the regulator backlog a teardown abandons
// as the group's loss. Planes add only their own counters and order.

import (
	"fmt"
	"slices"

	"repro/internal/overlay"
	"repro/internal/topo"
)

// edits holds what a tree edit touches: the substrate, whose trees and
// child plan start as the blueprint's, the network, the per-group runtime
// state, the session's hosts, and the outage set — the fault plane's,
// shared with the control plane; nil in a session without faults — and
// the scratch remove keeps its feed edges in.
type edits struct {
	sub    *substrate
	net    *topo.Network
	groups []*groupState
	hosts  []host
	down   bitset
	feeds  []feed
}

// feed is a tree edge remove unhooks: parent p feeding victim v.
type feed struct{ v, p int }

func newEdits(sub *substrate, hosts []host) edits {
	return edits{sub: sub, net: sub.net, groups: sub.groups, hosts: hosts}
}

// tree returns group g's tree to write — the graft points' live RTT index
// included: the session's own, cloned from the blueprint's on the group's
// first write, so a group nobody edits shares the blueprint's.
func (e *edits) tree(g int) *overlay.Tree {
	st := e.groups[g]
	if st.tree == e.sub.bp.trees[g] {
		st.tree = st.tree.Clone()
	}
	return st.tree
}

// own gives the session a child plan of its own before its first write to
// any host's child sets, compiled from the blueprint's trees — the plan
// its forwarders have read until now — and re-points them at it.
func (e *edits) own() {
	sub := e.sub
	if sub.plan != sub.bp.plan {
		return
	}
	sub.plan = compileChildren(len(e.hosts), sub.bp.trees)
	for id := range e.hosts {
		if f := e.hosts[id].fwd; f != nil {
			f.children = sub.plan.of(id)
		}
	}
}

// attach makes c a child of p in group g's host wiring.
func (e *edits) attach(g, p, c int) {
	e.own()
	e.hosts[p].attachChild(g, c)
}

// graft adds h to group g as a leaf under its strategy's graft point and
// wires the adopting host (which, if it was not forwarding g before,
// picks up a re-staggered regulator). It refuses — returns false — a
// group without a strategy, a current member, a down host and a host no
// parent can take.
func (e *edits) graft(g, h int) bool {
	st := e.groups[g]
	if st.strat == nil || st.member.has(h) || (e.down != nil && e.down.has(h)) {
		return false
	}
	t := e.tree(g)
	parent, err := st.strat.GraftPoint(e.net, t, h, 0, st.lim)
	if err != nil {
		return false
	}
	if err := t.Graft(h, parent); err != nil {
		panic(fmt.Sprintf("core: graft: %v", err))
	}
	st.member.set(h)
	e.attach(g, parent, h)
	return true
}

// repair re-attaches detached subtree roots in the given order under the
// strategy's graft rule — the cluster strategies resolve to the
// RTT-nearest protocol, spt repairs by path delay — so earlier roots
// become candidates for later ones.
func (e *edits) repair(g int, roots []int) {
	st, t := e.groups[g], e.tree(g)
	parents, err := t.RepairWith(roots, func(o, subHeight int) (int, error) {
		return st.strat.GraftPoint(e.net, t, o, subHeight, st.lim)
	})
	if err != nil {
		panic(fmt.Sprintf("core: repair: %v", err))
	}
	for i, o := range roots {
		e.attach(g, parents[i], o)
	}
}

// unhook stops host p feeding child c in group g. Returns the backlog p
// abandons with the edge, counted as the group's loss.
func (e *edits) unhook(g, p, c int) uint64 {
	e.own()
	n := uint64(e.hosts[p].removeChild(g, c))
	e.groups[g].lost += n
	return n
}

// drop clears h's membership of g and tears down h's forwarding state for
// g. Returns the abandoned backlog, counted as the group's loss.
func (e *edits) drop(g, h int) uint64 {
	e.own()
	st := e.groups[g]
	st.member.unset(h)
	n := uint64(e.hosts[h].detachGroup(g))
	st.lost += n
	return n
}

// members returns the hosts of hs, in order, that are members of g other
// than its source: the victims an outage or a mass leave takes there.
func (e *edits) members(g int, hs []int) []int {
	st := e.groups[g]
	var vs []int
	for _, h := range hs {
		if st.member.has(h) && h != st.tree.Source {
			vs = append(vs, h)
		}
	}
	return vs
}

// remove takes victims (ascending, all current members, none the source)
// out of group g in one step: membership clears and forwarding state
// tears down victim by victim in ascending order, the feed edges from
// surviving parents unhook, and victims parked as detached roots leave
// the deferred-repair set. Returns the orphaned subtree roots, unrepaired,
// in overlay.PruneAll's pinned ascending order — the tree's scratch, valid
// until its next prune — and the abandoned backlog.
func (e *edits) remove(g int, victims []int) (orphans []int, lost uint64) {
	st := e.groups[g]
	isVictim := func(h int) bool {
		_, ok := slices.BinarySearch(victims, h)
		return ok
	}
	// Feed edges from surviving parents, captured before the prune erases
	// them.
	feeds := e.feeds[:0]
	for _, v := range victims {
		if p, ok := st.tree.ParentOf(v); ok && p >= 0 && !isVictim(p) {
			feeds = append(feeds, feed{v, p})
		}
	}
	e.feeds = feeds
	orphans, err := e.tree(g).PruneAll(victims)
	if err != nil {
		panic(fmt.Sprintf("core: prune: %v", err))
	}
	for _, v := range victims {
		lost += e.drop(g, v)
	}
	for _, f := range feeds {
		lost += e.unhook(g, f.p, f.v)
	}
	st.detached = slices.DeleteFunc(st.detached, isVictim)
	return orphans, lost
}
