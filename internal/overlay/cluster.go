package overlay

// The shared clustering machinery of the hierarchy builders: every
// cluster-based strategy (DSCT, NICE, and any future variant) partitions
// an ordered member list into RTT-proximity clusters, elects a core per
// cluster, and iterates the surviving cores into the next layer. Factored
// out of the strategy constructors so the strategies differ only in how
// they order and partition the bottom layer, not in the layering loop.

import (
	"fmt"
	"slices"

	"repro/internal/topo"
	"repro/internal/xrand"
)

// clusterize partitions ids (in the given order) into proximity clusters.
// Each cluster is seeded by the first unassigned member and completed with
// its nearest unassigned neighbours by RTT. Sizes are drawn from
// [k, 3k−1], capped by sizeCap, exactly as the DSCT paper specifies: when
// no more than the maximum cluster size remains, the remainder forms the
// final cluster. The clusters are consecutive windows of one copy of ids:
// each pivot's nearest neighbours are sorted in place right behind it.
func clusterize(net *topo.Network, ids []int, k, sizeCap int, rng *xrand.Rand) [][]int {
	limit := 3*k - 1
	lo := k
	if sizeCap >= 2 && sizeCap < limit {
		limit = sizeCap
		if lo > limit {
			lo = limit
		}
	}
	unassigned := slices.Clone(ids)
	clusters := make([][]int, 0, len(ids)/max(lo, 1)+1)
	for len(unassigned) > 0 {
		size := len(unassigned)
		if size > limit {
			size = rng.IntRange(lo, limit)
		}
		sortByRTT(net, unassigned[0], unassigned[1:])
		clusters = append(clusters, unassigned[:size:size])
		unassigned = unassigned[size:]
	}
	return clusters
}

// pickCore selects the cluster core: the multicast source always wins its
// clusters (so the delivery tree roots at the source); otherwise the RTT
// centroid leads.
func pickCore(net *topo.Network, cluster []int, source int) int {
	for _, m := range cluster {
		if m == source {
			return source
		}
	}
	return rttCentroid(net, cluster)
}

// buildHierarchy runs the layered clustering loop over one ordered member
// set, assigning parent edges into t, and returns the surviving top core.
func buildHierarchy(t *Tree, net *topo.Network, layer []int, source int, k, sizeCap int, rng *xrand.Rand) int {
	for len(layer) > 1 {
		clusters := clusterize(net, layer, k, sizeCap, rng)
		next := make([]int, 0, len(clusters))
		for _, cluster := range clusters {
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

func checkMembership(members []int, source int) error {
	if len(members) == 0 {
		return fmt.Errorf("overlay: empty member set")
	}
	for _, m := range members {
		if m == source {
			return nil
		}
	}
	return fmt.Errorf("overlay: source %d not in member set of %d hosts", source, len(members))
}
