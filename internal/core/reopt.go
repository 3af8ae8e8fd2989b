package core

// The online tree re-optimization plane: the session measures per-member
// delivery delay while it runs, and periodic Reoptimize DES events rewire
// (or fully rebuild) each group's delivery tree from those measurements —
// routing becomes a measurement-driven decision instead of a build-time
// constant, the dynamic-overlay-routing move of Singh & Modiano and the
// delay-metric route selection of Jonglez et al., applied to the paper's
// multicast trees.
//
// Mechanics. Every delivery folds its source-to-member delay into a
// per-(group, host) running mean; the mean of member m minus the mean of
// its parent is the measured per-hop delay of the overlay edge feeding m,
// so the means embed a live per-hop delay map of the tree. A
// re-optimization pass for group g finds the member with the worst
// measured delay and the attached candidate parent p minimising the
// predicted delay est(p) + latency(p, w) under the group's strategy
// limits (fanout budget, height bound). The move is accepted only under
// hysteresis — predicted < measured × (1 − MinImprove), and not within
// the per-group cooldown window — so trees don't oscillate between two
// near-equal shapes. An accepted rewire is a pure edge swap
// (overlay.Tree.Reparent): membership never changes, in-flight packets
// still deliver, and only the regulator backlog a vacating parent was
// holding for the moved subtree is abandoned (counted as loss, exactly
// like a churn departure's).
//
// Determinism. Estimates are plain (sum, count) pairs indexed by host;
// a host's deliveries happen in identical order at every shard count, and
// a host belongs to exactly one shard, so the means are bit-identical
// across shard counts. Passes fire at coordinator quiesce barriers — the
// same device the membership control plane uses, after same-instant churn.

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/des"
	"repro/internal/overlay"
	"repro/internal/xrand"
)

// ReoptConfig parameterises the re-optimization plane. The zero value
// disables it.
type ReoptConfig struct {
	// Every is the period between re-optimization passes. 0 disables the
	// plane entirely.
	Every des.Duration
	// MinImprove is the hysteresis threshold: a candidate change is
	// accepted only when its predicted delay undercuts the measured one
	// by at least this fraction. Default 0.1.
	MinImprove float64
	// Cooldown is the per-group quiet period after an accepted change,
	// so a freshly rewired tree accumulates fresh measurements before it
	// is judged again. Default: one period (Every).
	Cooldown des.Duration
	// MaxMoves bounds the members rewired per pass per group. Default 1.
	MaxMoves int
	// Rebuild switches the pass from local rewiring to a full strategy
	// rebuild over the group's current member set, accepted when the
	// rebuilt tree's worst propagation path undercuts the current one by
	// MinImprove — the heavy hammer for trees structurally degraded by
	// heavy churn.
	Rebuild bool
}

// Enabled reports whether the plane is configured.
func (r *ReoptConfig) Enabled() bool { return r.Every > 0 }

func (r *ReoptConfig) fillDefaults(scheme Scheme) {
	if r.Every < 0 {
		panic("core: Reopt.Every must be non-negative")
	}
	if !r.Enabled() {
		return
	}
	if !scheme.Regulated() {
		panic("core: tree re-optimization requires a regulated scheme")
	}
	if r.MinImprove == 0 {
		r.MinImprove = 0.1
	}
	if r.MinImprove < 0 || r.MinImprove >= 1 {
		panic(fmt.Sprintf("core: Reopt.MinImprove %v outside [0,1)", r.MinImprove))
	}
	if r.Cooldown == 0 {
		r.Cooldown = r.Every
	}
	if r.MaxMoves == 0 {
		r.MaxMoves = 1
	}
	if r.MaxMoves < 0 {
		panic("core: Reopt.MaxMoves must be non-negative")
	}
}

// reoptTimes lists the pass instants: k·Every for k ≥ 1, up to and
// including the traffic duration (later passes would only see the drain
// tail).
func reoptTimes(every des.Duration, duration des.Duration) []des.Time {
	var times []des.Time
	for at := des.Time(every); at <= duration; at += every {
		times = append(times, at)
	}
	return times
}

// delayEst is one (group, host) running delay estimate.
type delayEst struct {
	sum float64
	n   uint64
}

// reoptPlane owns the measurement state and executes passes. Both engines
// share one instance; observe is called from the delivery path (each host
// is observed by exactly one engine), passes run with every engine
// quiesced.
type reoptPlane struct {
	edits
	cfg ReoptConfig

	est      [][]delayEst // [group][host] delay means since the last accepted change
	cooldown []des.Time   // per-group earliest next accepted change
	rebuilds []int        // per-group accepted rebuild count (derives rebuild seeds)
	moved    []int        // members rewired in the current pass

	accepted, moves, rejected int
}

func newReoptPlane(sub *substrate, hosts []host) *reoptPlane {
	ro := &reoptPlane{
		edits:    newEdits(sub, hosts),
		cfg:      sub.cfg.Reopt,
		est:      make([][]delayEst, len(sub.groups)),
		cooldown: make([]des.Time, len(sub.groups)),
		rebuilds: make([]int, len(sub.groups)),
	}
	for g := range ro.est {
		ro.est[g] = make([]delayEst, sub.cfg.NumHosts)
	}
	return ro
}

// observe folds one delivery into the (group, host) estimate. Hot path:
// two adds and a branch.
func (ro *reoptPlane) observe(g, id int, d float64) {
	e := &ro.est[g][id]
	e.sum += d
	e.n++
}

// reoptimize runs one pass over every group at simulated time at.
func (ro *reoptPlane) reoptimize(at des.Time) {
	for g := range ro.groups {
		ro.pass(g, at)
	}
}

func (ro *reoptPlane) pass(g int, at des.Time) {
	st := ro.groups[g]
	if st.strat == nil || at < ro.cooldown[g] {
		return
	}
	if len(st.detached) > 0 {
		// A partition severed subtrees off this group's tree; the rewire
		// candidate scan and the rebuild both assume every member is
		// attached, so the pass holds off until the heal re-attaches them.
		return
	}
	if ro.cfg.Rebuild {
		ro.rebuild(g, at)
		return
	}
	// moved excludes members already rewired this pass from re-selection:
	// their estimates still describe the old placement, so picking the
	// same member again would walk it through progressively worse
	// parents instead of rewiring MaxMoves distinct members.
	ro.moved = ro.moved[:0]
	for move := 0; move < ro.cfg.MaxMoves; move++ {
		if !ro.rewire(g) {
			break
		}
	}
	if len(ro.moved) > 0 {
		ro.accepted++
		ro.resetGroup(g, at)
	} else {
		ro.rejected++
	}
}

// plan picks group g's next rewire: the worst-measured member w not yet
// moved this pass, and the attached parent p with the best predicted delay
// est(p) + latency(p, w) under the strategy's fanout rule and height
// limit, where est is p's measured mean — or, before p has received, its
// tree-path propagation delay. ok is false when no member has a
// measurement or no candidate qualifies; the hysteresis is the caller's.
func (ro *reoptPlane) plan(g int) (w, p int, worst, predicted float64, ok bool) {
	st := ro.groups[g]
	t := st.tree
	est := ro.est[g]
	// Worst measured member (ties break to the lower id; members the run
	// has not reached yet have no measurement to improve on).
	w = -1
	for _, m := range t.Members {
		if m == t.Source || slices.Contains(ro.moved, m) {
			continue
		}
		e := &est[m]
		if e.n == 0 {
			continue
		}
		mean := e.sum / float64(e.n)
		if w < 0 || mean > worst || (mean == worst && m < w) {
			w, worst = m, mean
		}
	}
	if w < 0 {
		return -1, -1, 0, 0, false
	}
	// Candidates come from the tree's attached walk, which never enters w's
	// own subtree (a descendant parent would cycle); w's current parent is
	// not a move. Passes run between control-plane operations with every
	// member attached.
	p, predicted, ok = overlay.Select(t, t.Parent(w), w, overlay.Rule[float64]{
		Key: func(m int, lat des.Duration) float64 {
			mean := lat.Seconds()
			if e := &est[m]; e.n > 0 {
				mean = e.sum / float64(e.n)
			}
			return mean + ro.net.Latency(m, w).Seconds()
		},
		Fanout:    func(m, kids int) bool { return st.strat.FanoutOK(ro.net, m, kids, st.lim) },
		SubHeight: t.SubtreeHeight(w),
		MaxHeight: st.lim.MaxHeight,
		Net:       ro.net,
		Strict:    true,
	})
	return w, p, worst, predicted, ok
}

// rewire attempts one measurement-driven edge swap in group g: the move
// plan picks, applied if its prediction clears the hysteresis margin.
// Returns whether a move was applied (recording it in moved).
func (ro *reoptPlane) rewire(g int) bool {
	w, p, worst, predicted, ok := ro.plan(g)
	if !ok || predicted >= worst*(1-ro.cfg.MinImprove) {
		return false
	}
	st := ro.groups[g]
	oldParent := st.tree.Parent(w)
	if err := ro.tree(g).Reparent(w, p); err != nil {
		panic(fmt.Sprintf("core: reopt rewire: %v", err))
	}
	// Host wiring mirrors a churn leave+join for the moved edge: the old
	// parent drops the child (abandoning any backlog it held exclusively
	// for that subtree — counted as loss), the new parent picks it up.
	ro.unhook(g, oldParent, w)
	ro.attach(g, p, w)
	ro.moves++
	ro.moved = append(ro.moved, w)
	return true
}

// rebuild re-runs the group's strategy constructor over its current
// member set and swaps the whole tree in when the rebuilt worst-case
// propagation path clears the hysteresis margin.
func (ro *reoptPlane) rebuild(g int, at des.Time) {
	st := ro.groups[g]
	t := st.tree
	members := append([]int(nil), t.Members...)
	sort.Ints(members)
	bcfg := st.treeCfg
	bcfg.Seed = xrand.DeriveSeed(bcfg.Seed, len(ro.groups)+ro.rebuilds[g])
	cand, err := st.strat.Build(ro.net, members, t.Source, bcfg)
	if err != nil {
		panic(fmt.Sprintf("core: reopt rebuild: %v", err))
	}
	maxPath := func(tr *overlay.Tree) float64 {
		worst := 0.0
		for _, m := range tr.Members {
			if d := tr.PathLatency(ro.net, m).Seconds(); d > worst {
				worst = d
			}
		}
		return worst
	}
	if maxPath(cand) >= maxPath(t)*(1-ro.cfg.MinImprove) {
		ro.rejected++
		return
	}
	// Apply the rebuild as an edge diff: members whose parent is the same
	// in the rebuilt tree keep their forwarding state (and regulators)
	// untouched; only genuinely moved edges detach (old parent abandons
	// the backlog it held for that child — counted, as on a churn
	// departure) and re-attach. Removals complete before attachments so a
	// host's child set never transiently holds both the old and new edge.
	var movedMembers []int
	for _, m := range members {
		if m != cand.Source && cand.Parent(m) != t.Parent(m) {
			movedMembers = append(movedMembers, m)
			ro.unhook(g, t.Parent(m), m)
		}
	}
	st.tree = cand // the session's own: the blueprint's is not written
	for _, m := range movedMembers {
		ro.attach(g, cand.Parent(m), m)
		ro.moves++
	}
	if len(movedMembers) == 0 {
		// The rebuilt tree improved the propagation metric without moving
		// any edge — impossible in practice, but count it as rejected
		// rather than as an accepted no-op change.
		ro.rejected++
		return
	}
	ro.rebuilds[g]++
	ro.accepted++
	ro.resetGroup(g, at)
}

// resetGroup clears the group's estimates after an accepted change — the
// old measurements describe a tree that no longer exists — and starts the
// cooldown window.
func (ro *reoptPlane) resetGroup(g int, at des.Time) {
	est := ro.est[g]
	for i := range est {
		est[i] = delayEst{}
	}
	ro.cooldown[g] = at + des.Time(ro.cfg.Cooldown)
}
