package core

// The session control plane: membership changes are discrete events that
// graft and prune group members while the simulation runs. A join picks a
// deterministic graft point (nearest attached member by RTT, inside the
// Lemma 2 height bound and the cluster fanout cap) and wires the adopting
// host's forwarding state; a leave prunes the member, re-parents its
// orphaned subtrees, tears down the departed forwarder's regulator bank
// (backlog counted as churn loss), and re-staggers any freshly created
// duty cycles onto the global schedule. Everything is a pure function of
// (config, events), so churn runs are as reproducible as static ones.

import (
	"fmt"
	"sort"

	"repro/internal/des"
	"repro/internal/topo"
)

// MembershipEvent is one dynamic membership change: Host joins or leaves
// Group at simulated time At. Events addressed to the group's source, to
// a current member (join), or to a non-member (leave) are counted as
// rejected and otherwise ignored — churn models may race a lifetime
// expiry against other churn, and a no-op is the right outcome.
type MembershipEvent struct {
	At    des.Time
	Group int
	Host  int
	Join  bool
}

// String implements fmt.Stringer.
func (e MembershipEvent) String() string {
	verb := "leave"
	if e.Join {
		verb = "join"
	}
	return fmt.Sprintf("%v host %d %s group %d", e.At, e.Host, verb, e.Group)
}

// controlPlane applies membership events to a session's per-group runtime
// state. The session drives it from coordinator barriers, which quiesce
// every shard before a mutation spanning them.
type controlPlane struct {
	net    *topo.Network
	groups []*groupState
	hosts  []host
	// down, when the session has a fault plane, is its outage set (shared
	// slice): hosts under an outage are barred from joining until
	// restored. Nil without faults.
	down bitset

	joins, leaves, regrafts, rejected int
}

func newControlPlane(sub *substrate, hosts []host) *controlPlane {
	return &controlPlane{
		net:    sub.net,
		groups: sub.groups,
		hosts:  hosts,
	}
}

// sortedEventsWithin returns the events at or before duration, stably
// sorted by time — the application order.
// Events beyond the traffic duration are dropped: the sources have
// stopped, so late churn would only distort the drain tail.
func sortedEventsWithin(events []MembershipEvent, duration des.Duration) []MembershipEvent {
	evs := append([]MembershipEvent(nil), events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	n := 0
	for _, ev := range evs {
		if ev.At <= duration {
			evs[n] = ev
			n++
		}
	}
	return evs[:n]
}

// apply executes one membership change.
func (cp *controlPlane) apply(ev MembershipEvent) {
	if ev.Group < 0 || ev.Group >= len(cp.groups) ||
		ev.Host < 0 || ev.Host >= len(cp.hosts) {
		cp.rejected++
		return
	}
	if ev.Join {
		cp.join(ev.Group, ev.Host)
	} else {
		cp.leave(ev.Group, ev.Host)
	}
}

// join grafts host h onto group g: h becomes a member and a leaf of the
// delivery tree under its graft point, whose host machinery picks up the
// new child connection (and, if it was not forwarding g before, a
// re-staggered regulator).
func (cp *controlPlane) join(g, h int) {
	st := cp.groups[g]
	if st.member.has(h) || st.strat == nil || (cp.down != nil && cp.down.has(h)) {
		cp.rejected++
		return
	}
	parent, err := st.strat.GraftPoint(cp.net, st.tree, h, 0, st.lim)
	if err != nil {
		cp.rejected++
		return
	}
	if err := st.tree.Graft(h, parent); err != nil {
		panic(fmt.Sprintf("core: control plane graft: %v", err))
	}
	st.member.set(h)
	cp.hosts[parent].attachChild(g, h)
	cp.joins++
}

// leave prunes host h from group g: h's parent stops feeding it, h's own
// forwarding state for g tears down (regulator backlog abandoned and
// counted), and each subtree h was feeding re-parents under its repair
// graft point. Packets to h already in flight are dropped on arrival by
// Session.receive. The group's source never leaves.
func (cp *controlPlane) leave(g, h int) {
	st := cp.groups[g]
	if !st.member.has(h) || h == st.tree.Source || st.strat == nil {
		cp.rejected++
		return
	}
	if !st.tree.Attached(h) {
		// h sits in a partition-severed subtree: no repair happens on the
		// dark side (see faults.go), so its orphans join the deferred set
		// instead of re-grafting. Unreachable without an active partition.
		cp.leaveDetached(g, h)
		return
	}
	parent := st.tree.Parent(h)
	orphans, err := st.tree.Prune(h)
	if err != nil {
		panic(fmt.Sprintf("core: control plane prune: %v", err))
	}
	st.member.unset(h)
	st.lost += uint64(cp.hosts[parent].removeChild(g, h))
	st.lost += uint64(cp.hosts[h].detachGroup(g))
	// Repair through the group's strategy: the cluster strategies resolve
	// to the pre-strategy RTT-nearest protocol, spt repairs by path delay.
	parents, err := st.tree.RepairWith(orphans, func(o, subHeight int) (int, error) {
		return st.strat.GraftPoint(cp.net, st.tree, o, subHeight, st.lim)
	})
	if err != nil {
		panic(fmt.Sprintf("core: control plane repair: %v", err))
	}
	for i, o := range orphans {
		cp.hosts[parents[i]].attachChild(g, o)
		cp.regrafts++
	}
	cp.leaves++
}

// leaveDetached prunes a member inside a partition-severed subtree: the
// member's forwarding state tears down exactly as on an attached leave,
// but its children become detached roots themselves and wait in the
// group's deferred-repair set for the heal — repairs only happen on the
// attached side of a cut.
func (cp *controlPlane) leaveDetached(g, h int) {
	st := cp.groups[g]
	parent, hasParent := st.tree.ParentOf(h)
	orphans, err := st.tree.PruneAll([]int{h})
	if err != nil {
		panic(fmt.Sprintf("core: control plane prune: %v", err))
	}
	st.member.unset(h)
	if hasParent {
		st.lost += uint64(cp.hosts[parent].removeChild(g, h))
	}
	st.lost += uint64(cp.hosts[h].detachGroup(g))
	// h, if it was itself a parked root, is replaced by its children.
	n := 0
	for _, r := range st.detached {
		if r != h {
			st.detached[n] = r
			n++
		}
	}
	st.detached = append(st.detached[:n], orphans...)
	sort.Ints(st.detached)
	cp.leaves++
}
