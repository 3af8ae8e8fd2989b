package core

// The fault-injection plane: correlated failures as first-class DES
// events. Where the control plane (control.go) perturbs membership one
// host at a time, this plane executes the correlated events real fleets
// see — a whole router domain going dark (and coming back), the substrate
// partitioning along a router bipartition and healing, and epoch-style
// mass membership transitions — and measures how the session recovers
// from each one.
//
// Execution model. Fault events are compiled into the Config (typically
// by the scenario layer, on a dedicated xrand stream, so enabling faults
// perturbs nothing else) and execute exactly like membership events: at
// coordinator quiesce barriers. At a shared instant the order is faults →
// membership churn → re-optimization. All batch work is done in pinned
// orders — victims ascending, orphan roots ascending (overlay.PruneAll),
// groups ascending — so runs are bit-identical at every shard count.
//
// Semantics worth pinning down:
//   - Group sources are immune to outages and mass leaves: a group's flow
//     enters at its root, so the domain-mates of a source go dark while
//     the source itself keeps sending.
//   - An outage removes its victims from every group at once and repairs
//     the orphaned subtrees immediately; a restore re-grafts exactly the
//     memberships recorded at outage time (hosts are barred from churn
//     joins while down).
//   - A partition severs every tree edge whose endpoints straddle the
//     router cut but repairs nothing: the severed subtree roots wait in
//     groupState.detached until the heal re-attaches them in ascending
//     order. While the cut is active the fabric drops (and counts) every
//     packet sent across it; packets already in flight still deliver.
//   - Recovery per event is measured at sentinel hosts (re-attached
//     subtree roots, restored members, mass joiners): RecoverySec is the
//     largest gap from the event instant to a sentinel's next delivery —
//     the service-interruption view. Sentinels that never deliver again
//     before the run ends count as Unrecovered; a later fault tracking
//     the same (group, host) supersedes the earlier sentinel.

import (
	"fmt"
	"sort"

	"repro/internal/des"
	"repro/internal/topo"
)

// FaultKind enumerates the correlated failure events.
type FaultKind int

// The fault event kinds (see the package comment for semantics).
const (
	// FaultOutage takes a host set (typically a whole router domain) out
	// of every group at one instant.
	FaultOutage FaultKind = iota
	// FaultRestore brings a prior outage's hosts back, re-grafting the
	// memberships recorded when the outage hit.
	FaultRestore
	// FaultPartition cuts the substrate along a router bipartition.
	FaultPartition
	// FaultHeal closes the active partition and batch-repairs every
	// severed subtree.
	FaultHeal
	// FaultMassLeave removes a batch of one group's members at one instant.
	FaultMassLeave
	// FaultMassJoin adds a batch of members to one group at one instant —
	// the arriving cohort of an epoch transition.
	FaultMassJoin
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultOutage:
		return "outage"
	case FaultRestore:
		return "restore"
	case FaultPartition:
		return "partition"
	case FaultHeal:
		return "heal"
	case FaultMassLeave:
		return "mass_leave"
	case FaultMassJoin:
		return "mass_join"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// FaultEvent is one compiled fault: Kind strikes at simulated time At.
// Events are validated strictly at session build time — unlike membership
// churn, a malformed fault schedule is a configuration bug, not a race to
// shrug off.
type FaultEvent struct {
	At   des.Time
	Kind FaultKind
	// ID pairs an outage with its restore and a partition with its heal.
	ID int
	// Group targets FaultMassLeave/FaultMassJoin; -1 for the session-wide
	// kinds.
	Group int
	// Hosts lists the affected hosts, strictly ascending: the domain for
	// outage/restore, the cohort for the mass kinds. Nil for
	// partition/heal.
	Hosts []int
	// Side is the router bipartition of a FaultPartition (true = side A),
	// indexed by router id over the whole backbone. Nil for other kinds.
	Side []bool
}

// String implements fmt.Stringer.
func (e FaultEvent) String() string {
	return fmt.Sprintf("%v %s (id %d)", e.At, e.Kind, e.ID)
}

// FaultOutcome reports one fault event's measured impact and recovery.
type FaultOutcome struct {
	// Kind and AtSec echo the event.
	Kind  string  `json:"kind"`
	AtSec float64 `json:"at_sec"`
	// Group is the targeted group for the mass kinds, -1 otherwise.
	Group int `json:"group"`
	// Hosts counts what the event touched: hosts taken down (outage),
	// memberships re-grafted (restore), tree edges severed (partition),
	// victims removed (mass_leave), or members added (mass_join).
	Hosts int `json:"hosts"`
	// Regrafts counts orphan subtrees re-attached while handling the
	// event.
	Regrafts int `json:"regrafts"`
	// Lost is the loss attributed to this event: regulator backlog
	// abandoned by its teardowns plus packets dropped at its partition
	// cut.
	Lost uint64 `json:"lost"`
	// RecoverySec is the service-interruption time: the largest gap from
	// the event instant to a sentinel host's next delivery (0 when the
	// event tracked no sentinels).
	RecoverySec float64 `json:"recovery_sec"`
	// Unrecovered counts sentinels that never delivered again before the
	// run ended.
	Unrecovered int `json:"unrecovered"`
}

// faultsWithin returns the fault events at or before duration, stably
// sorted by time — the application order, mirroring sortedEventsWithin.
func faultsWithin(events []FaultEvent, duration des.Duration) []FaultEvent {
	evs := append([]FaultEvent(nil), events...)
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

// validateFaults panics on a structurally invalid schedule: malformed
// events, broken outage/restore or partition/heal pairing, or overlapping
// outages. It runs over the time-sorted compiled list.
func validateFaults(events []FaultEvent, numHosts, numGroups, numRouters int) {
	hostsOK := func(ev FaultEvent) {
		if len(ev.Hosts) == 0 {
			panic(fmt.Sprintf("core: fault %v needs a host set", ev))
		}
		for i, h := range ev.Hosts {
			if h < 0 || h >= numHosts {
				panic(fmt.Sprintf("core: fault %v host %d outside [0,%d)", ev, h, numHosts))
			}
			if i > 0 && h <= ev.Hosts[i-1] {
				panic(fmt.Sprintf("core: fault %v hosts not strictly ascending", ev))
			}
		}
	}
	down := make(map[int]int)      // host -> outage ID holding it down
	outages := make(map[int][]int) // active outage ID -> hosts
	cut := false
	cutID := 0
	for _, ev := range events {
		if ev.At <= 0 {
			panic(fmt.Sprintf("core: fault %v must strike after time zero", ev))
		}
		switch ev.Kind {
		case FaultOutage:
			hostsOK(ev)
			if ev.Group != -1 {
				panic(fmt.Sprintf("core: fault %v is session-wide; Group must be -1", ev))
			}
			if _, dup := outages[ev.ID]; dup {
				panic(fmt.Sprintf("core: fault %v reuses an active outage id", ev))
			}
			for _, h := range ev.Hosts {
				if id, isDown := down[h]; isDown {
					panic(fmt.Sprintf("core: fault %v overlaps outage %d on host %d", ev, id, h))
				}
				down[h] = ev.ID
			}
			outages[ev.ID] = ev.Hosts
		case FaultRestore:
			hostsOK(ev)
			if ev.Group != -1 {
				panic(fmt.Sprintf("core: fault %v is session-wide; Group must be -1", ev))
			}
			prev, ok := outages[ev.ID]
			if !ok {
				panic(fmt.Sprintf("core: fault %v restores an unknown outage", ev))
			}
			if len(prev) != len(ev.Hosts) {
				panic(fmt.Sprintf("core: fault %v host set differs from its outage", ev))
			}
			for i, h := range prev {
				if ev.Hosts[i] != h {
					panic(fmt.Sprintf("core: fault %v host set differs from its outage", ev))
				}
				delete(down, h)
			}
			delete(outages, ev.ID)
		case FaultPartition:
			if ev.Group != -1 {
				panic(fmt.Sprintf("core: fault %v is session-wide; Group must be -1", ev))
			}
			if cut {
				panic(fmt.Sprintf("core: fault %v overlaps partition %d", ev, cutID))
			}
			if len(ev.Side) != numRouters {
				panic(fmt.Sprintf("core: fault %v side bitmap has %d routers, want %d", ev, len(ev.Side), numRouters))
			}
			a := 0
			for _, s := range ev.Side {
				if s {
					a++
				}
			}
			if a == 0 || a == numRouters {
				panic(fmt.Sprintf("core: fault %v bipartition has an empty side", ev))
			}
			cut, cutID = true, ev.ID
		case FaultHeal:
			if ev.Group != -1 {
				panic(fmt.Sprintf("core: fault %v is session-wide; Group must be -1", ev))
			}
			if !cut {
				panic(fmt.Sprintf("core: fault %v heals without an active partition", ev))
			}
			if ev.ID != cutID {
				panic(fmt.Sprintf("core: fault %v heals partition %d, but %d is active", ev, ev.ID, cutID))
			}
			cut = false
		case FaultMassLeave, FaultMassJoin:
			hostsOK(ev)
			if ev.Group < 0 || ev.Group >= numGroups {
				panic(fmt.Sprintf("core: fault %v group outside [0,%d)", ev, numGroups))
			}
		default:
			panic(fmt.Sprintf("core: unknown fault kind %d", int(ev.Kind)))
		}
	}
}

// faultTrack is one recovery sentinel: a (group, host) whose next
// delivery closes the event's recovery window.
type faultTrack struct{ g, h int }

// faultPlane executes the fault schedule against a session's per-group
// runtime. Like the control plane it is driven from coordinator barriers:
// mutations happen only with every engine quiesced at the event time.
type faultPlane struct {
	net    *topo.Network
	groups []*groupState
	hosts  []host
	events []FaultEvent // time-sorted, within the traffic duration

	down        bitset          // hosts currently under an outage (barred from joins)
	restoreSets map[int][][]int // outage ID -> per-group memberships to re-graft

	// Active partition cut: the hosts on the cut's true side, derived from
	// the router bipartition at partition time and meaningful only while
	// cutOn. Written only at quiesce points; the fabric Drop hook reads it
	// on every send.
	cutHost bitset
	cutOn   bool
	cutIdx  int // outcome index cut drops are attributed to

	outcomes []FaultOutcome
	tracked  [][]faultTrack // per event: its recovery sentinels
	// trackIdx/firstAt index [group][host]: which event (if any) is
	// tracking the pair, and its first delivery at or after that event
	// (-1 while pending). firstAt is written by the owning shard's
	// delivery path only; trackIdx only at quiesce points.
	trackIdx [][]int32
	firstAt  [][]des.Time
}

func newFaultPlane(sub *substrate, hosts []host, events []FaultEvent) *faultPlane {
	validateFaults(events, len(hosts), len(sub.groups), sub.net.Backbone.NumNodes())
	fp := &faultPlane{
		net:         sub.net,
		groups:      sub.groups,
		hosts:       hosts,
		events:      events,
		down:        make(bitset, words(len(hosts))),
		restoreSets: make(map[int][][]int),
		outcomes:    make([]FaultOutcome, len(events)),
		tracked:     make([][]faultTrack, len(events)),
		trackIdx:    make([][]int32, len(sub.groups)),
		firstAt:     make([][]des.Time, len(sub.groups)),
	}
	for i, ev := range events {
		fp.outcomes[i] = FaultOutcome{Kind: ev.Kind.String(), AtSec: ev.At.Seconds(), Group: ev.Group}
	}
	for g := range fp.trackIdx {
		ti := make([]int32, len(hosts))
		for i := range ti {
			ti[i] = -1
		}
		fp.trackIdx[g] = ti
		fp.firstAt[g] = make([]des.Time, len(hosts))
	}
	return fp
}

// apply executes event i with every engine quiesced at its instant.
func (fp *faultPlane) apply(i int) {
	ev := fp.events[i]
	switch ev.Kind {
	case FaultOutage:
		fp.outage(i, ev)
	case FaultRestore:
		fp.restore(i, ev)
	case FaultPartition:
		fp.partition(i, ev)
	case FaultHeal:
		fp.heal(i)
	case FaultMassLeave:
		fp.massLeave(i, ev)
	case FaultMassJoin:
		fp.massJoin(i, ev)
	}
}

// outage takes ev.Hosts down: each group loses the victims among its
// current members (sources are immune), the orphaned subtrees repair
// immediately, and the per-group victim lists are recorded for the
// restore. Down hosts are barred from churn joins until restored.
func (fp *faultPlane) outage(i int, ev FaultEvent) {
	oc := &fp.outcomes[i]
	oc.Hosts = len(ev.Hosts)
	for _, h := range ev.Hosts {
		fp.down.set(h)
	}
	mem := make([][]int, len(fp.groups))
	for g, st := range fp.groups {
		var victims []int
		for _, h := range ev.Hosts {
			if st.member.has(h) && h != st.tree.Source {
				victims = append(victims, h)
			}
		}
		mem[g] = victims
		if len(victims) > 0 && st.strat != nil {
			fp.removeBatch(i, g, victims)
		}
	}
	fp.restoreSets[ev.ID] = mem
}

// restore clears the outage's down flags and re-grafts the memberships
// recorded when it hit, in group-ascending then host-ascending order.
// Each re-grafted host becomes a recovery sentinel.
func (fp *faultPlane) restore(i int, ev FaultEvent) {
	oc := &fp.outcomes[i]
	for _, h := range ev.Hosts {
		fp.down.unset(h)
	}
	mem := fp.restoreSets[ev.ID]
	delete(fp.restoreSets, ev.ID)
	for g, hosts := range mem {
		for _, h := range hosts {
			if fp.graft(g, h) {
				oc.Hosts++
				fp.track(i, g, h)
			}
		}
	}
}

// partition activates the cut and severs, per group in ascending member
// order, every tree edge whose endpoints straddle it. Severed subtree
// roots are parked in groupState.detached — nothing repairs until the
// heal, so the dark side stays dark. The vacating parents' abandoned
// backlog is counted against this event.
func (fp *faultPlane) partition(i int, ev FaultEvent) {
	if fp.cutOn {
		panic("core: partition while another partition is active")
	}
	oc := &fp.outcomes[i]
	side := &fp.cutHost
	side.reset(len(fp.hosts))
	for h := range fp.hosts {
		if ev.Side[fp.net.Hosts[h].Router] {
			side.set(h)
		}
	}
	fp.cutOn = true
	fp.cutIdx = i
	type edge struct{ m, p int }
	for g, st := range fp.groups {
		t := st.tree
		var cuts []edge
		for _, m := range t.Members {
			if m == t.Source {
				continue
			}
			p, ok := t.ParentOf(m)
			if !ok || p < 0 {
				continue
			}
			if side.has(m) != side.has(p) {
				cuts = append(cuts, edge{m, p})
			}
		}
		sort.Slice(cuts, func(a, b int) bool { return cuts[a].m < cuts[b].m })
		for _, e := range cuts {
			if err := t.Detach(e.m); err != nil {
				panic(fmt.Sprintf("core: partition detach: %v", err))
			}
			n := uint64(fp.hosts[e.p].removeChild(g, e.m))
			st.lost += n
			oc.Lost += n
			st.detached = append(st.detached, e.m)
		}
		sort.Ints(st.detached)
		oc.Hosts += len(cuts)
	}
}

// heal deactivates the cut and batch-repairs every group's parked
// subtree roots in ascending order; each re-attached root becomes a
// recovery sentinel.
func (fp *faultPlane) heal(i int) {
	if !fp.cutOn {
		panic("core: heal without an active partition")
	}
	oc := &fp.outcomes[i]
	fp.cutOn = false
	for g, st := range fp.groups {
		if len(st.detached) == 0 {
			continue
		}
		roots := st.detached
		st.detached = nil
		sort.Ints(roots)
		fp.repair(i, g, roots, oc)
	}
}

// massLeave removes the victims still in the group (sources immune,
// already-churned-out hosts skipped) and repairs immediately.
func (fp *faultPlane) massLeave(i int, ev FaultEvent) {
	st := fp.groups[ev.Group]
	oc := &fp.outcomes[i]
	var victims []int
	for _, h := range ev.Hosts {
		if st.member.has(h) && h != st.tree.Source {
			victims = append(victims, h)
		}
	}
	oc.Hosts = len(victims)
	if len(victims) > 0 && st.strat != nil {
		fp.removeBatch(i, ev.Group, victims)
	}
}

// massJoin grafts the cohort onto the group in ascending order, skipping
// hosts that are down or already members (they churned in during an
// epoch's overlap window). Each joiner becomes a recovery sentinel.
func (fp *faultPlane) massJoin(i int, ev FaultEvent) {
	oc := &fp.outcomes[i]
	for _, h := range ev.Hosts {
		if fp.down.has(h) {
			continue
		}
		if fp.graft(ev.Group, h) {
			oc.Hosts++
			fp.track(i, ev.Group, h)
		}
	}
}

// removeBatch removes victims (ascending, all current members, none the
// source) from group g in one step: membership clears and forwarding
// state tears down victim-by-victim in ascending order, surviving feed
// edges unhook, and the orphaned subtrees repair in the pinned ascending
// order overlay.PruneAll returns. Victims that were parked detached
// roots leave the deferred-repair set with their membership.
func (fp *faultPlane) removeBatch(i, g int, victims []int) {
	st := fp.groups[g]
	oc := &fp.outcomes[i]
	vset := make(map[int]bool, len(victims))
	for _, v := range victims {
		vset[v] = true
	}
	// Feed edges from surviving parents, captured before the batch prune
	// erases them.
	type edge struct{ v, p int }
	var feeds []edge
	for _, v := range victims {
		if p, ok := st.tree.ParentOf(v); ok && p >= 0 && !vset[p] {
			feeds = append(feeds, edge{v, p})
		}
	}
	orphans, err := st.tree.PruneAll(victims)
	if err != nil {
		panic(fmt.Sprintf("core: fault prune: %v", err))
	}
	for _, v := range victims {
		st.member.unset(v)
		n := uint64(fp.hosts[v].detachGroup(g))
		st.lost += n
		oc.Lost += n
	}
	for _, e := range feeds {
		n := uint64(fp.hosts[e.p].removeChild(g, e.v))
		st.lost += n
		oc.Lost += n
	}
	if len(st.detached) > 0 {
		n := 0
		for _, r := range st.detached {
			if !vset[r] {
				st.detached[n] = r
				n++
			}
		}
		st.detached = st.detached[:n]
	}
	fp.repair(i, g, orphans, oc)
}

// repair re-attaches detached subtree roots through the group strategy's
// graft rule, in the given (ascending) order — earlier re-attached
// subtrees become candidates for later ones — and starts recovery
// tracking on each root.
func (fp *faultPlane) repair(i, g int, roots []int, oc *FaultOutcome) {
	st := fp.groups[g]
	parents, err := st.tree.RepairWith(roots, func(o, subHeight int) (int, error) {
		return st.strat.GraftPoint(fp.net, st.tree, o, subHeight, st.lim)
	})
	if err != nil {
		panic(fmt.Sprintf("core: fault repair: %v", err))
	}
	for j, o := range roots {
		fp.hosts[parents[j]].attachChild(g, o)
		oc.Regrafts++
		fp.track(i, g, o)
	}
}

// graft adds h to group g as a leaf under its strategy graft point — the
// fault plane's join, counted against fault outcomes rather than churn
// counters. Returns false for a no-op (already a member, or no strategy).
func (fp *faultPlane) graft(g, h int) bool {
	st := fp.groups[g]
	if st.strat == nil || st.member.has(h) {
		return false
	}
	parent, err := st.strat.GraftPoint(fp.net, st.tree, h, 0, st.lim)
	if err != nil {
		return false
	}
	if err := st.tree.Graft(h, parent); err != nil {
		panic(fmt.Sprintf("core: fault graft: %v", err))
	}
	st.member.set(h)
	fp.hosts[parent].attachChild(g, h)
	return true
}

// track registers (g, h) as a recovery sentinel of event i, superseding
// any earlier event tracking the same pair.
func (fp *faultPlane) track(i, g, h int) {
	fp.trackIdx[g][h] = int32(i)
	fp.firstAt[g][h] = -1
	fp.tracked[i] = append(fp.tracked[i], faultTrack{g, h})
}

// onDeliver stamps a tracked pair's first delivery. Hot path: two array
// loads and a branch; called only when the plane exists.
func (fp *faultPlane) onDeliver(g, id int, now des.Time) {
	if fp.trackIdx[g][id] >= 0 && fp.firstAt[g][id] < 0 {
		fp.firstAt[g][id] = now
	}
}

// cutDrop is the fabric Drop hook: a packet crossing the active cut is
// discarded and attributed to the partition event in the caller's
// counter — shard-local, merged after the run in shard order, so
// attribution is deterministic at every shard count.
func (fp *faultPlane) cutDrop(counter []uint64, src, dst int) bool {
	if !fp.cutOn || fp.cutHost.has(src) == fp.cutHost.has(dst) {
		return false
	}
	counter[fp.cutIdx]++
	return true
}

// finish folds the recovery measurements into the outcomes and attaches
// them to the result. cut is the per-event partition-drop tally (summed
// across shards by the caller).
func (fp *faultPlane) finish(res *Result, cut []uint64) {
	res.Faults = make([]FaultOutcome, len(fp.outcomes))
	for i := range fp.outcomes {
		oc := fp.outcomes[i]
		oc.Lost += cut[i]
		res.CutLost += cut[i]
		worst := des.Time(-1)
		for _, tr := range fp.tracked[i] {
			if fp.trackIdx[tr.g][tr.h] != int32(i) {
				continue // superseded by a later event tracking this pair
			}
			at := fp.firstAt[tr.g][tr.h]
			if at < 0 {
				oc.Unrecovered++
				continue
			}
			if d := at - fp.events[i].At; d > worst {
				worst = d
			}
		}
		if worst >= 0 {
			oc.RecoverySec = worst.Seconds()
		}
		res.Faults[i] = oc
		res.FaultLost += oc.Lost
	}
}
