package overlay

// The shared clustering machinery of the hierarchy builders: every
// cluster-based strategy (DSCT, NICE, and any future variant) partitions
// an ordered member list into RTT-proximity clusters, elects a core per
// cluster, and iterates the surviving cores into the next layer. Factored
// out of the strategy constructors so the strategies differ only in how
// they order and partition the bottom layer, not in the layering loop.

import (
	"fmt"

	"repro/internal/topo"
	"repro/internal/xrand"
)

// clusterWalk cuts one layer into proximity clusters in place. Each
// cluster is seeded by the first member not yet assigned and completed
// with its nearest unassigned neighbours by RTT, which the layer's RTT
// index selects and writes right behind it, so every cluster is a window
// of the layer's own buffer. Sizes are drawn from [k, 3k−1], capped by
// sizeCap, exactly as the DSCT paper specifies: when no more than the
// maximum cluster size remains, the remainder forms the final cluster.
type clusterWalk struct {
	layer     []int // the layer: the clusters cut, then the next pivot
	cut       int   // the members assigned so far
	lo, limit int   // the cluster size range
	idx       *rttIndex
}

// newClusterWalk loads layer into idx, the tree build's RTT index, and
// takes out the first pivot, layer[0].
func newClusterWalk(layer []int, k, sizeCap int, idx *rttIndex) clusterWalk {
	w := clusterWalk{layer: layer, lo: k, limit: 3*k - 1, idx: idx}
	if sizeCap >= 2 && sizeCap < w.limit {
		w.limit = sizeCap
		w.lo = min(w.lo, w.limit)
	}
	idx.load(layer)
	idx.remove(layer[0])
	return w
}

// next cuts the next cluster off the front of the walk, or returns nil
// when every member is assigned.
func (w *clusterWalk) next(rng *xrand.Rand) []int {
	left := len(w.layer) - w.cut
	if left == 0 {
		return nil
	}
	size := left
	if size > w.limit {
		size = rng.IntRange(w.lo, w.limit)
	}
	// The size members nearest the pivot: the cluster's other members,
	// and behind them, at w.layer[end], the next cluster's pivot.
	end := w.cut + size
	w.idx.take(w.layer[w.cut], w.layer[w.cut+1:min(end+1, len(w.layer))])
	cluster := w.layer[w.cut:end:end]
	w.cut = end
	return cluster
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
// It runs in layer's own buffer: each cluster's core is written back to
// the front of the buffer, where the clusters already cut lay, and the
// cores so written are the next layer. idx is the tree build's RTT index
// and must hold len(layer) members.
func buildHierarchy(t *Tree, net *topo.Network, layer []int, source int, k, sizeCap int, rng *xrand.Rand, idx *rttIndex) int {
	for len(layer) > 1 {
		n := 0
		for w := newClusterWalk(layer, k, sizeCap, idx); ; n++ {
			cluster := w.next(rng)
			if cluster == nil {
				break
			}
			core := pickCore(net, cluster, source)
			for _, m := range cluster {
				if m != core {
					t.setParent(m, core)
				}
			}
			layer[n] = core
		}
		layer = layer[:n]
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
