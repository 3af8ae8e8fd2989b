package overlay

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/topo"
	"repro/internal/xrand"
)

// refSortByRTT is the comparator sort the RTT index replaced, kept as its
// reference: every id ordered by round-trip time to the pivot, ties by id,
// with two RTT evaluations per comparison.
func refSortByRTT(net *topo.Network, pivot int, ids []int) {
	slices.SortFunc(ids, func(a, b int) int {
		return cmp.Or(cmp.Compare(net.RTT(pivot, a), net.RTT(pivot, b)), cmp.Compare(a, b))
	})
}

// refClusterize is the clone-based clustering the in-place walk replaced,
// kept as its reference: it partitions a copy of ids into a list of
// clusters, each seeded by the first unassigned member and completed with
// its nearest unassigned neighbours by RTT.
func refClusterize(net *topo.Network, ids []int, k, sizeCap int, rng *xrand.Rand) [][]int {
	limit := 3*k - 1
	lo := k
	if sizeCap >= 2 && sizeCap < limit {
		limit = sizeCap
		if lo > limit {
			lo = limit
		}
	}
	unassigned := slices.Clone(ids)
	var clusters [][]int
	for len(unassigned) > 0 {
		size := len(unassigned)
		if size > limit {
			size = rng.IntRange(lo, limit)
		}
		refSortByRTT(net, unassigned[0], unassigned[1:])
		clusters = append(clusters, unassigned[:size:size])
		unassigned = unassigned[size:]
	}
	return clusters
}

// refHierarchy is the layering loop over refClusterize: each layer's
// cores are collected into a fresh next layer.
func refHierarchy(t *Tree, net *topo.Network, layer []int, source, k, sizeCap int, rng *xrand.Rand) int {
	for len(layer) > 1 {
		var next []int
		for _, cluster := range refClusterize(net, layer, k, sizeCap, rng) {
			core := pickCore(net, cluster, source)
			for _, m := range cluster {
				if m != core {
					t.setParent(m, core)
				}
			}
			next = append(next, core)
		}
		layer = next
	}
	return layer[0]
}

// refDSCT is BuildDSCT by definition: each router's member hosts in
// attachment order form a domain, each domain a hierarchy of its own, and
// the local cores the inter-cluster hierarchy.
func refDSCT(net *topo.Network, members []int, source int, cfg Config) *Tree {
	if err := cfg.fillDefaults(); err != nil {
		panic(err)
	}
	rng := xrand.New(cfg.Seed ^ 0x5851f42d4c957f2d)
	t := mustTree(source, members)
	var cores []int
	for r := 0; r < net.Backbone.NumNodes(); r++ {
		var domain []int
		for _, h := range net.HostsAtRouter(topo.NodeID(r)) {
			if isMember(t, h) {
				domain = append(domain, h)
			}
		}
		if len(domain) > 0 {
			cores = append(cores, refHierarchy(t, net, domain, source, cfg.K, cfg.SizeCap, rng))
		}
	}
	refHierarchy(t, net, cores, source, cfg.K, cfg.SizeCap, rng)
	return t
}

// refNICE is BuildNICE over refHierarchy.
func refNICE(net *topo.Network, members []int, source int, cfg Config) *Tree {
	if err := cfg.fillDefaults(); err != nil {
		panic(err)
	}
	rng := xrand.New(cfg.Seed ^ 0x9e3779b97f4a7c15)
	t := mustTree(source, members)
	layer := slices.Clone(members)
	rng.ShuffleInts(layer)
	refHierarchy(t, net, layer, source, cfg.K, cfg.SizeCap, rng)
	return t
}

// sameEdges fails unless every member of want has the same parent in got
// and the same children in the same order.
func sameEdges(t *testing.T, got, want *Tree) {
	t.Helper()
	if len(got.Members) != len(want.Members) {
		t.Fatalf("sizes differ: %d vs %d", len(got.Members), len(want.Members))
	}
	for _, m := range want.Members {
		if g, w := got.Parent(m), want.Parent(m); g != w {
			t.Fatalf("member %d: parent %d, reference %d", m, g, w)
		}
		if g, w := children(got, m), children(want, m); !slices.Equal(g, w) {
			t.Fatalf("member %d: children %v, reference %v", m, g, w)
		}
	}
}

// TestHierarchyInPlaceMatchesReference: BuildDSCT and BuildNICE, which run
// a group's whole hierarchy in one buffer, give every member the parent
// edge and child order the clone-based reference gives — for K = 2, 3, 4,
// with and without a cluster size cap, on member sets whose domains hold
// one host, two, or many — and both refuse a member list that repeats
// hosts.
func TestHierarchyInPlaceMatchesReference(t *testing.T) {
	net := topo.NewNetwork(topo.Waxman{N: 40}.Build(6), topo.NetworkConfig{NumHosts: 1200, Seed: 6})
	rng := xrand.New(23)
	// sparse: one host from some routers and two from others, so the
	// domain layer holds domains of size 1 and 2 beside each other.
	var sparse []int
	for r := 0; r < net.Backbone.NumNodes(); r++ {
		hosts := net.HostsAtRouter(topo.NodeID(r))
		sparse = append(sparse, hosts[:min(len(hosts), 1+r%2)]...)
	}
	sets := map[string][]int{
		"sparse":  sparse,
		"one":     sparse[:1],
		"two":     sparse[1:3],
		"random":  rng.Perm(1200)[:300],
		"all":     allMembers(1200),
		"repeats": append(rng.Perm(1200)[:150], sparse[:20]...),
	}
	for name, members := range sets {
		for k := 2; k <= 4; k++ {
			for _, sizeCap := range []int{0, 2, 3, 5} {
				source := members[rng.Intn(len(members))]
				cfg := Config{K: k, SizeCap: sizeCap, Seed: rng.Uint64()}
				t.Run(fmt.Sprintf("%s/K=%d/cap=%d", name, k, sizeCap), func(t *testing.T) {
					if name == "repeats" {
						want := fmt.Sprintf("overlay: duplicate member %d", firstRepeat(t, members))
						if _, err := BuildDSCT(net, members, source, cfg); err == nil || err.Error() != want {
							t.Fatalf("dsct: error %v, want %q", err, want)
						}
						if _, err := BuildNICE(net, members, source, cfg); err == nil || err.Error() != want {
							t.Fatalf("nice: error %v, want %q", err, want)
						}
						return
					}
					sameEdges(t, mustDSCT(t, net, members, source, cfg), refDSCT(net, members, source, cfg))
					sameEdges(t, mustNICE(t, net, members, source, cfg), refNICE(net, members, source, cfg))
				})
			}
		}
	}
}

// firstRepeat returns the first member of members listed a second time.
func firstRepeat(t *testing.T, members []int) int {
	t.Helper()
	seen := make(map[int]bool)
	for _, m := range members {
		if seen[m] {
			return m
		}
		seen[m] = true
	}
	t.Fatal("no member repeats")
	return -1
}

// refFlat is the breadth-first flat build BuildFlat and greedy share, over
// refSortByRTT: each host adopts budget(host) of the unattached members,
// nearest first, after a full sort of all of them.
func refFlat(net *topo.Network, members []int, source int, budget func(int) int) *Tree {
	t := mustTree(source, members)
	var unattached []int
	for _, m := range members {
		if m != source {
			unattached = append(unattached, m)
		}
	}
	for queue := []int{source}; len(queue) > 0 && len(unattached) > 0; queue = queue[1:] {
		refSortByRTT(net, queue[0], unattached)
		take := min(budget(queue[0]), len(unattached))
		for _, c := range unattached[:take] {
			t.setParent(c, queue[0])
			queue = append(queue, c)
		}
		unattached = unattached[take:]
	}
	return t
}

// TestFlatBuildsMatchReference: BuildFlat and the greedy strategy, which
// select only each host's children, give every member the parent and
// child order the full-sort reference gives — with uplink classes, so
// greedy's budgets differ host to host, and on a wire underlay, where
// every RTT ties and ids alone decide.
func TestFlatBuildsMatchReference(t *testing.T) {
	classes := []topo.UplinkClass{{Mult: 0.5, Weight: 1}, {Mult: 1, Weight: 2}, {Mult: 3, Weight: 1}}
	nets := map[string]*topo.Network{
		"waxman": topo.NewNetwork(topo.Waxman{N: 40}.Build(2), topo.NetworkConfig{NumHosts: 900, Seed: 2, UplinkClasses: classes}),
		"wire":   topo.NewNetwork(topo.Wire{}.Build(0), topo.NetworkConfig{NumHosts: 300, Seed: 2}),
	}
	rng := xrand.New(8)
	for name, net := range nets {
		for trial := 0; trial < 6; trial++ {
			members := rng.Perm(len(net.Hosts))[:2+rng.Intn(len(net.Hosts)-2)]
			source := members[rng.Intn(len(members))]
			fanout := 1 + rng.Intn(6)
			t.Run(fmt.Sprintf("%s/%d", name, trial), func(t *testing.T) {
				flat, err := BuildFlat(net, members, source, fanout)
				if err != nil {
					t.Fatal(err)
				}
				sameEdges(t, flat, refFlat(net, members, source, func(int) int { return fanout }))
				greedy, err := MustStrategy("greedy").Build(net, members, source, Config{Fanout: fanout})
				if err != nil {
					t.Fatal(err)
				}
				sameEdges(t, greedy, refFlat(net, members, source, func(h int) int { return greedyBudget(net, h, fanout) }))
			})
		}
	}
}
