package overlay

// The pluggable overlay-strategy layer: tree construction is a named,
// registered Strategy instead of a hard-coded free function, so sessions,
// scenarios, and the CLI select the algorithm by name ("dsct", "nice",
// "spt", "greedy") and the control plane grafts, repairs, and re-optimises
// through the same strategy that built the tree. Strategies are stateless
// singletons; per-group randomness comes in through Config.Seed exactly as
// it did for the free-function builders, so the "dsct" and "nice"
// strategies are byte-identical to BuildDSCT/BuildNICE.

import (
	"fmt"
	"sort"

	"repro/internal/calculus"
	"repro/internal/des"
	"repro/internal/topo"
)

// Limits are a strategy's graft-time constraints: the child budget of a
// forwarding member and the tree height cap the control plane enforces on
// joins and repairs. A non-positive field disables that constraint.
type Limits struct {
	MaxFanout int
	MaxHeight int
}

// Strategy builds and incrementally maintains one family of delivery
// trees. Build constructs a tree over a member set, and a member listed
// twice is an error, as a source outside it is; Limits reports the
// graft constraints for a population of n hosts; GraftPoint picks the
// adoption parent for a joining host or an orphan subtree root under the
// strategy's own placement rule (RTT-proximity for the cluster
// hierarchies, accumulated path delay for the shortest-path family,
// capacity-scaled fanout for the greedy family).
type Strategy interface {
	Name() string
	Build(net *topo.Network, members []int, source int, cfg Config) (*Tree, error)
	Limits(cfg Config, n int) Limits
	GraftPoint(net *topo.Network, t *Tree, h, subHeight int, lim Limits) (int, error)
	// FanoutOK reports whether member m, now feeding kids children, may
	// accept one more under the strategy's fanout rule — the flat
	// lim.MaxFanout cap for the cluster and shortest-path families, the
	// capacity-scaled per-host budget for greedy. Graft points and
	// re-optimization rewires filter candidates through this, so every
	// mutation path enforces the same budget the constructor did.
	FanoutOK(net *topo.Network, m, kids int, lim Limits) bool
}

// flatFanoutOK is the shared flat-cap fanout rule.
func flatFanoutOK(kids int, lim Limits) bool {
	return lim.MaxFanout <= 0 || kids < lim.MaxFanout
}

var strategies = map[string]Strategy{}

// RegisterStrategy adds s to the registry. Duplicate names are a
// programming error and panic.
func RegisterStrategy(s Strategy) {
	if _, dup := strategies[s.Name()]; dup {
		panic(fmt.Sprintf("overlay: duplicate strategy %q", s.Name()))
	}
	strategies[s.Name()] = s
}

// LookupStrategy resolves a strategy by name.
func LookupStrategy(name string) (Strategy, error) {
	s, ok := strategies[name]
	if !ok {
		return nil, fmt.Errorf("overlay: unknown strategy %q (have %v)", name, StrategyNames())
	}
	return s, nil
}

// MustStrategy is LookupStrategy for static names.
func MustStrategy(name string) Strategy {
	s, err := LookupStrategy(name)
	if err != nil {
		panic(err)
	}
	return s
}

// StrategyNames lists the registered strategies, sorted.
func StrategyNames() []string {
	out := make([]string, 0, len(strategies))
	for n := range strategies {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func init() {
	RegisterStrategy(dsctStrategy{})
	RegisterStrategy(niceStrategy{})
	RegisterStrategy(sptStrategy{})
	RegisterStrategy(greedyStrategy{})
}

// clusterLimits are the constraints shared by the cluster hierarchies:
// the 3K−1 cluster-size cap as the child budget and the Lemma 2 height
// bound — exactly what the control plane enforced before strategies
// existed, so "dsct" churn behaviour is unchanged.
func clusterLimits(cfg Config, n int) Limits {
	k := cfg.K
	if k == 0 {
		k = 3
	}
	return Limits{MaxFanout: 3*k - 1, MaxHeight: calculus.DSCTHeightBoundMax(n, k)}
}

// dsctStrategy is the paper's DSCT builder behind the Strategy interface.
type dsctStrategy struct{}

func (dsctStrategy) Name() string { return "dsct" }
func (dsctStrategy) Build(net *topo.Network, members []int, source int, cfg Config) (*Tree, error) {
	return BuildDSCT(net, members, source, cfg)
}
func (dsctStrategy) Limits(cfg Config, n int) Limits { return clusterLimits(cfg, n) }
func (dsctStrategy) GraftPoint(net *topo.Network, t *Tree, h, subHeight int, lim Limits) (int, error) {
	return t.GraftPoint(net, h, subHeight, lim.MaxFanout, lim.MaxHeight)
}
func (dsctStrategy) FanoutOK(net *topo.Network, m, kids int, lim Limits) bool {
	return flatFanoutOK(kids, lim)
}

// niceStrategy is the location-blind NICE builder behind the interface.
type niceStrategy struct{}

func (niceStrategy) Name() string { return "nice" }
func (niceStrategy) Build(net *topo.Network, members []int, source int, cfg Config) (*Tree, error) {
	return BuildNICE(net, members, source, cfg)
}
func (niceStrategy) Limits(cfg Config, n int) Limits { return clusterLimits(cfg, n) }
func (niceStrategy) GraftPoint(net *topo.Network, t *Tree, h, subHeight int, lim Limits) (int, error) {
	return t.GraftPoint(net, h, subHeight, lim.MaxFanout, lim.MaxHeight)
}
func (niceStrategy) FanoutOK(net *topo.Network, m, kids int, lim Limits) bool {
	return flatFanoutOK(kids, lim)
}

// sptStrategy builds a delay-weighted shortest-path tree over the router
// graph: members attach Prim-style, each new member adopting the attached
// parent minimising its accumulated source-to-member propagation delay
// (parent's tree-path delay plus the underlay latency of the new hop),
// under the 3K−1 child budget. The result approximates the underlay
// shortest-path tree restricted to overlay fanout — the delay-metric
// routing of the dynamic-overlay literature, against which the paper's
// proximity clustering can be compared. A member listed twice is an error.
type sptStrategy struct{}

func (sptStrategy) Name() string { return "spt" }

func (sptStrategy) Limits(cfg Config, n int) Limits {
	k := cfg.K
	if k == 0 {
		k = 3
	}
	// No cluster hierarchy, so no Lemma 2 form: height is whatever the
	// delay metric yields (bounded in practice by the fanout budget).
	return Limits{MaxFanout: 3*k - 1, MaxHeight: 0}
}

func (s sptStrategy) Build(net *topo.Network, members []int, source int, cfg Config) (*Tree, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	if err := checkMembership(members, source); err != nil {
		return nil, err
	}
	fanout := s.Limits(cfg, len(members)).MaxFanout
	t, err := newTree(source, members)
	if err != nil {
		return nil, err
	}

	// Prim over the overlay metric d(m) = d(parent) + latency(parent, m).
	// best[m] caches the cheapest attachment seen so far; when a parent
	// fills up, the nodes that cached it recompute over the attached set.
	const unset = -1
	dist := make(map[int]des.Duration, len(members))
	kids := make(map[int]int, len(members))
	dist[source] = 0
	attached := []int{source}
	type edge struct {
		cost   des.Duration
		parent int
	}
	best := make(map[int]edge, len(members))
	unattached := make([]int, 0, len(members)-1)
	for _, m := range members {
		if m == source {
			continue
		}
		unattached = append(unattached, m)
		best[m] = edge{cost: dist[source] + net.Latency(source, m), parent: source}
	}
	// Deterministic candidate order: ids ascending.
	sort.Ints(unattached)

	recompute := func(m int) edge {
		e := edge{parent: unset}
		for _, a := range attached {
			if kids[a] >= fanout {
				continue
			}
			c := dist[a] + net.Latency(a, m)
			if e.parent == unset || c < e.cost || (c == e.cost && a < e.parent) {
				e = edge{cost: c, parent: a}
			}
		}
		return e
	}

	for len(unattached) > 0 {
		// Pick the unattached member with the cheapest valid attachment
		// (ties by id — unattached stays id-sorted throughout).
		pick, pickAt := edge{parent: unset}, -1
		for i, m := range unattached {
			e := best[m]
			if kids[e.parent] >= fanout {
				e = recompute(m)
				best[m] = e
			}
			if e.parent == unset {
				continue
			}
			if pickAt < 0 || e.cost < pick.cost {
				pick, pickAt = e, i
			}
		}
		if pickAt < 0 {
			// Unreachable while fanout >= 1: every attachment adds budget.
			return nil, fmt.Errorf("overlay: spt build stuck with %d members unattached", len(unattached))
		}
		m := unattached[pickAt]
		t.setParent(m, pick.parent)
		dist[m] = pick.cost
		kids[pick.parent]++
		attached = append(attached, m)
		unattached = append(unattached[:pickAt], unattached[pickAt+1:]...)
		delete(best, m)
		// The new member may now be the cheapest parent for the rest.
		for _, u := range unattached {
			c := dist[m] + net.Latency(m, u)
			e := best[u]
			if e.parent == unset || c < e.cost || (c == e.cost && m < e.parent) {
				best[u] = edge{cost: c, parent: m}
			}
		}
	}
	return t, nil
}

// GraftPoint for spt minimises the joiner's accumulated path delay —
// attached member m with the smallest PathLatency(m) + latency(m, h) —
// under the fanout budget, relaxing the budget only when every attached
// member is full (mirroring Tree.GraftPoint's relaxation order; spt has
// no height rule). The walk sums each candidate's path delay top-down.
func (sptStrategy) GraftPoint(net *topo.Network, t *Tree, h, subHeight int, lim Limits) (int, error) {
	p, _, ok := Select(t, h, -1, Rule[des.Duration]{
		Key:    func(m int, lat des.Duration) des.Duration { return lat + net.Latency(m, h) },
		Fanout: func(_, kids int) bool { return flatFanoutOK(kids, lim) },
		Net:    net,
	})
	if !ok {
		return -1, noGraftPoint(h)
	}
	return p, nil
}

func (sptStrategy) FanoutOK(net *topo.Network, m, kids int, lim Limits) bool {
	return flatFanoutOK(kids, lim)
}

// greedyStrategy builds the capacity-aware fanout-greedy tree: breadth-
// first from the source, each host adopting its nearest unattached members
// by RTT up to a child budget scaled by the host's uplink-class multiplier
// (⌊Fanout × mult⌋, floored at 1) — fast hosts fan wide, slow hosts stay
// near the leaves. With homogeneous uplinks this degenerates to BuildFlat
// at fanout Config.Fanout. A member listed twice is an error.
type greedyStrategy struct{}

func (greedyStrategy) Name() string { return "greedy" }

func (greedyStrategy) Limits(cfg Config, n int) Limits {
	f := cfg.Fanout
	if f == 0 {
		f = DefaultGreedyFanout
	}
	return Limits{MaxFanout: f, MaxHeight: 0}
}

// budget returns host h's child allowance under the base fanout.
func greedyBudget(net *topo.Network, h, base int) int {
	b := int(float64(base) * net.Hosts[h].UplinkMult)
	if b < 1 {
		b = 1
	}
	return b
}

func (g greedyStrategy) Build(net *topo.Network, members []int, source int, cfg Config) (*Tree, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	if err := checkMembership(members, source); err != nil {
		return nil, err
	}
	base := g.Limits(cfg, len(members)).MaxFanout
	t, err := newTree(source, members)
	if err != nil {
		return nil, err
	}
	if left := adoptNearest(t, net, func(h int) int { return greedyBudget(net, h, base) }); left > 0 {
		// Impossible while every budget >= 1, but fail loudly over panicking
		// deep inside a sweep.
		return nil, fmt.Errorf("overlay: greedy build left %d members unattached", left)
	}
	return t, nil
}

// GraftPoint for greedy is RTT-nearest under the per-host capacity-scaled
// budget, relaxing the budget only when every attached member is full —
// Tree.GraftPoint's index path with no height rule.
func (g greedyStrategy) GraftPoint(net *topo.Network, t *Tree, h, subHeight int, lim Limits) (int, error) {
	return t.nearestGraft(net, h, 0, 0, func(m, kids int) bool { return g.FanoutOK(net, m, kids, lim) })
}

func (greedyStrategy) FanoutOK(net *topo.Network, m, kids int, lim Limits) bool {
	return lim.MaxFanout <= 0 || kids < greedyBudget(net, m, lim.MaxFanout)
}
