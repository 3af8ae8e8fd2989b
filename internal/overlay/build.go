package overlay

import (
	"fmt"
	"slices"

	"repro/internal/topo"
	"repro/internal/xrand"
)

// Config controls the cluster-hierarchy builders (DSCT and NICE).
type Config struct {
	// K is the cluster parameter: intra/inter-cluster sizes are drawn
	// uniformly from [K, 3K−1] (the paper's Eq. (1)/(2) of ref [14];
	// K = 3 in all published experiments). Default 3.
	K int
	// SizeCap, when >= 2, caps every cluster size — the capacity-aware
	// variant, where a host may only feed ⌊C_out/Σρᵢ⌋ children so the
	// cluster it leads cannot exceed that fanout + 1.
	SizeCap int
	// Fanout is the "greedy" strategy's base child budget per host,
	// scaled by each host's uplink-class multiplier and floored at 1.
	// Default 4. The cluster strategies ignore it.
	Fanout int
	// Seed drives the random cluster-size draws.
	Seed uint64
}

// DefaultGreedyFanout is the greedy strategy's base child budget when
// Config.Fanout is unset.
const DefaultGreedyFanout = 4

func (c *Config) fillDefaults() error {
	if c.K == 0 {
		c.K = 3
	}
	if c.K < 2 {
		return fmt.Errorf("overlay: cluster parameter K must be >= 2, got %d", c.K)
	}
	if c.SizeCap != 0 && c.SizeCap < 2 {
		return fmt.Errorf("overlay: SizeCap must be 0 (none) or >= 2, got %d", c.SizeCap)
	}
	if c.Fanout < 0 {
		return fmt.Errorf("overlay: Fanout must be non-negative, got %d", c.Fanout)
	}
	if c.Fanout == 0 {
		c.Fanout = DefaultGreedyFanout
	}
	return nil
}

// BuildDSCT constructs the paper's DSCT tree (Section V): members are
// first partitioned into local domains (hosts attached to the same
// backbone router), each domain builds an intra-cluster hierarchy bottom-
// up, and the surviving local cores build the inter-cluster hierarchy.
// The delivery tree is rooted at the multicast source (the source wins
// core election in every cluster containing it). A bad member set (a
// host listed twice, say) or cluster configuration is reported as an
// error, not a panic, so scenario sweeps can surface the offending spec
// instead of crashing mid-run.
func BuildDSCT(net *topo.Network, members []int, source int, cfg Config) (*Tree, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	if err := checkMembership(members, source); err != nil {
		return nil, err
	}
	rng := xrand.New(cfg.Seed ^ 0x5851f42d4c957f2d)
	t, err := newTree(source, members)
	if err != nil {
		return nil, err
	}
	// Local domains in deterministic router order, preserving attachment
	// order within a domain: a counting sort of the members by router,
	// O(members + routers) per group whatever the host population, then
	// each domain back into ascending host id, the order topo.NewNetwork
	// attaches hosts in. The whole hierarchy runs in the one buffer the
	// sort fills: each domain's hierarchy in its own window, its top core
	// written back to the buffer's front, where the domains before it lay,
	// and the local cores so written are the inter-cluster hierarchy's
	// bottom layer.
	routers := net.Backbone.NumNodes()
	buf := make([]int, len(members)+routers+1)
	byDomain, pos := buf[:len(members)], buf[len(members):]
	for _, m := range members {
		if m < 0 || m >= len(net.Hosts) {
			return nil, fmt.Errorf("overlay: member %d is not one of the network's %d hosts", m, len(net.Hosts))
		}
		pos[net.Hosts[m].Router+1]++
	}
	// One RTT index serves every hierarchy: it holds the largest domain,
	// all on one router, or the layer of local cores, one per populated
	// domain and so each on a router of its own.
	widest, populated := 0, 0
	for r := 0; r < routers; r++ {
		if size := pos[r+1]; size > 0 {
			widest, populated = max(widest, size), populated+1
		}
		pos[r+1] += pos[r] // pos[r]: where domain r starts
	}
	idx := newRTTIndex(net, max(widest+1, 2*populated))
	for _, m := range members {
		r := net.Hosts[m].Router
		byDomain[pos[r]] = m
		pos[r]++ // pos[r]: where domain r ends
	}
	cores, lo := 0, 0
	for r := 0; r < routers; r++ {
		domain := byDomain[lo:pos[r]]
		lo = pos[r]
		if len(domain) == 0 {
			continue
		}
		slices.Sort(domain)
		byDomain[cores] = buildHierarchy(t, net, domain, source, cfg.K, cfg.SizeCap, rng, &idx)
		cores++
	}
	buildHierarchy(t, net, byDomain[:cores], source, cfg.K, cfg.SizeCap, rng, &idx)
	return t, nil
}

// BuildNICE constructs a NICE-style tree (ref [8]): the same hierarchical
// clustering as DSCT but location-blind — no domain partition, and the
// bottom layer is visited in seeded random order, so low-layer clusters
// freely span backbone domains. Cluster sizes and leader election follow
// the NICE rules ([k, 3k−1], RTT centre). A member listed twice is an
// error.
func BuildNICE(net *topo.Network, members []int, source int, cfg Config) (*Tree, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	if err := checkMembership(members, source); err != nil {
		return nil, err
	}
	rng := xrand.New(cfg.Seed ^ 0x9e3779b97f4a7c15)
	t, err := newTree(source, members)
	if err != nil {
		return nil, err
	}
	layer := append([]int(nil), members...)
	rng.ShuffleInts(layer)
	idx := newRTTIndex(net, len(layer)+min(len(layer), net.Backbone.NumNodes()))
	buildHierarchy(t, net, layer, source, cfg.K, cfg.SizeCap, rng, &idx)
	return t, nil
}

// FanoutBound is the capacity-aware child budget of Fig. 1: a host whose
// aggregate output capacity is `factor` × the per-connection capacity C,
// serving flows with total normalised load `load` = Σρᵢ/C per connection,
// can feed at most ⌊factor/load⌋ children. The result is clamped to at
// least 2 (a bound of 1 would degenerate every tree into a chain, which
// no published capacity-aware protocol does — they fall back to minimum
// branching instead).
func FanoutBound(load, factor float64) int {
	if load <= 0 || factor <= 0 {
		panic("overlay: load and factor must be positive")
	}
	d := int(factor / load)
	// Keep strictly inside the budget: at d·load == C_out the per-
	// connection queues are critically loaded and delays diverge.
	for d > 2 && float64(d)*load > 0.97*factor {
		d--
	}
	if d < 2 {
		d = 2
	}
	return d
}

// BuildFlat constructs the flat degree-bounded capacity-aware tree of the
// paper's Fig. 1: breadth-first from the source, each host adopting up to
// `fanout` nearest unattached members by RTT. This is the capacity-aware
// comparator of the experiments (the location-aware "capacity-aware DSCT"
// flavour); BuildFlatBlind is its location-blind NICE counterpart. Unlike
// a cluster-size cap on the hierarchy builders, the flat builder bounds
// each host's *total* fanout, which is what the capacity budget
// ⌊C_out/Σρᵢ⌋ actually constrains. A member listed twice is an error.
func BuildFlat(net *topo.Network, members []int, source, fanout int) (*Tree, error) {
	if err := checkMembership(members, source); err != nil {
		return nil, err
	}
	if fanout < 1 {
		return nil, fmt.Errorf("overlay: fanout must be >= 1, got %d", fanout)
	}
	t, err := newTree(source, members)
	if err != nil {
		return nil, err
	}
	adoptNearest(t, net, func(int) int { return fanout })
	return t, nil
}

// adoptNearest grows t breadth-first from its source: each host, in the
// order it was adopted, adopts the budget(host) unattached members nearest
// it by RTT (ties by id), nearest first, until none is left or no adopted
// host is left to adopt. It returns how many members stayed unattached.
func adoptNearest(t *Tree, net *topo.Network, budget func(int) int) int {
	n := len(t.Members)
	idx := newRTTIndex(net, n+min(n, net.Backbone.NumNodes()))
	idx.load(t.Members)
	idx.remove(t.Source)
	// The adoption order is the breadth-first queue: order[:adopted] are
	// attached, and order[next] adopts next.
	order := make([]int, n)
	order[0] = t.Source
	adopted := 1
	for next := 0; next < adopted && adopted < n; next++ {
		v := order[next]
		kids := order[adopted : adopted+min(budget(v), n-adopted)]
		idx.take(v, kids)
		for _, c := range kids {
			t.setParent(c, v)
		}
		adopted += len(kids)
	}
	return n - adopted
}

// BuildFlatBlind is BuildFlat without locality: children are adopted in a
// seeded random order instead of nearest-by-RTT, so overlay hops freely
// span backbone domains — the capacity-aware NICE comparator. A member
// listed twice is an error.
func BuildFlatBlind(net *topo.Network, members []int, source, fanout int, seed uint64) (*Tree, error) {
	if err := checkMembership(members, source); err != nil {
		return nil, err
	}
	if fanout < 1 {
		return nil, fmt.Errorf("overlay: fanout must be >= 1, got %d", fanout)
	}
	rng := xrand.New(seed ^ 0xa24baed4963ee407)
	t, err := newTree(source, members)
	if err != nil {
		return nil, err
	}
	unattached := make([]int, 0, len(members)-1)
	for _, m := range members {
		if m != source {
			unattached = append(unattached, m)
		}
	}
	rng.ShuffleInts(unattached)
	queue := []int{source}
	for len(queue) > 0 && len(unattached) > 0 {
		v := queue[0]
		queue = queue[1:]
		take := fanout
		if take > len(unattached) {
			take = len(unattached)
		}
		for _, c := range unattached[:take] {
			t.setParent(c, v)
			queue = append(queue, c)
		}
		unattached = unattached[take:]
	}
	return t, nil
}
