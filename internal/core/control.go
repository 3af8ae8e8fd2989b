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

// controlPlane applies membership events to a session's per-group runtime
// state through the tree-edit layer. The session drives it from
// coordinator barriers, which quiesce every shard before a mutation
// spanning them. Hosts under an outage (edits.down) are barred from
// joining until restored.
type controlPlane struct {
	edits
	joins, leaves, regrafts, rejected int
}

// upTo returns the prefix of a time-ordered schedule at or before
// duration, found by binary search and read in place. Events beyond the
// traffic duration are dropped: the sources have stopped, so late changes
// would only distort the drain tail.
func upTo[E any](events []E, duration des.Duration, at func(E) des.Time) []E {
	return events[:sort.Search(len(events), func(i int) bool { return at(events[i]) > duration })]
}

// checkOrder refuses a Config whose fault or membership schedule is not in
// time order, naming the first entry that precedes the one before it.
func (c *Config) checkOrder() error {
	if err := ordered("Faults", c.Faults, func(ev FaultEvent) des.Time { return ev.At }); err != nil {
		return err
	}
	return ordered("Events", c.Events, func(ev MembershipEvent) des.Time { return ev.At })
}

func ordered[E any](name string, events []E, at func(E) des.Time) error {
	for i := 1; i < len(events); i++ {
		if at(events[i]) < at(events[i-1]) {
			return fmt.Errorf("core: %s[%d] at %v precedes %s[%d] at %v: a schedule must be in time order",
				name, i, at(events[i]), name, i-1, at(events[i-1]))
		}
	}
	return nil
}

// apply executes one membership change.
func (cp *controlPlane) apply(ev MembershipEvent) {
	g, h := ev.Group, ev.Host
	switch {
	case g < 0 || g >= len(cp.groups) || h < 0 || h >= len(cp.hosts):
		cp.rejected++
	case ev.Join && cp.graft(g, h):
		cp.joins++
	case !ev.Join && cp.leave(g, h):
		cp.leaves++
	default:
		cp.rejected++
	}
}

// leave prunes host h from group g: h's parent stops feeding it, h's own
// forwarding state for g tears down (regulator backlog abandoned and
// counted), and each subtree h was feeding re-parents under its repair
// graft point. Packets to h already in flight are dropped on arrival by
// Session.receive. The group's source never leaves. Returns false for a
// no-op.
func (cp *controlPlane) leave(g, h int) bool {
	st := cp.groups[g]
	if !st.member.has(h) || h == st.tree.Source || st.strat == nil {
		return false
	}
	if !st.tree.Attached(h) {
		// h sits in a partition-severed subtree: no repair happens on the
		// dark side (see faults.go), so its children become detached roots
		// themselves and wait for the heal in the group's deferred-repair
		// set, which h leaves if it was parked there. Unreachable without
		// an active partition.
		orphans, _ := cp.remove(g, []int{h})
		st.detached = append(st.detached, orphans...)
		sort.Ints(st.detached)
		return true
	}
	// Tree.Prune, not remove's batch prune: it repairs the orphans in
	// child order, the order the churn results are pinned to.
	parent := st.tree.Parent(h)
	orphans, err := cp.tree(g).Prune(h)
	if err != nil {
		panic(fmt.Sprintf("core: control plane prune: %v", err))
	}
	cp.unhook(g, parent, h)
	cp.drop(g, h)
	cp.repair(g, orphans)
	cp.regrafts += len(orphans)
	return true
}
