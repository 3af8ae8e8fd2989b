package topo

import (
	"repro/internal/des"
	"repro/internal/xrand"
)

// Backbone constants. The paper's Fig. 5 shows a 19-router backbone; the
// exact edge set is not legible from the published figure, so we lay the 19
// routers out on a plausible continental plane and connect them with a
// fixed edge set of comparable density (31 links, degree 2..5, diameter 5).
// Only path-delay sums and the router partition matter to the experiments
// (see DESIGN.md, substitution table).
const (
	// BackboneNodes is the router count of Fig. 5.
	BackboneNodes = 19
	// propagation speed proxy: ~5 microseconds per simulated km.
	microsecondsPerUnit = 5.0
)

// Backbone19 builds the 19-router backbone used by every multi-group
// experiment. Link propagation delays derive from planar distance at
// ~5 µs per unit, yielding one-hop delays of roughly 0.4–1.6 ms and a
// network diameter of ~6 ms, typical of a national ISP core.
func Backbone19() *Graph {
	g := NewGraph(BackboneNodes)
	coords := []Point{
		{120, 300}, // 0
		{220, 180}, // 1
		{260, 420}, // 2
		{380, 120}, // 3
		{400, 300}, // 4
		{360, 520}, // 5
		{520, 200}, // 6
		{540, 400}, // 7
		{500, 580}, // 8
		{660, 100}, // 9
		{680, 300}, // 10
		{640, 500}, // 11
		{780, 200}, // 12
		{800, 420}, // 13
		{760, 580}, // 14
		{900, 120}, // 15
		{920, 320}, // 16
		{880, 520}, // 17
		{40, 480},  // 18
	}
	for i, p := range coords {
		g.SetCoord(NodeID(i), p)
	}
	edges := [][2]NodeID{
		{0, 1}, {0, 2}, {0, 18}, {1, 2}, {1, 3}, {2, 5}, {2, 18},
		{3, 4}, {3, 6}, {4, 5}, {4, 6}, {4, 7}, {5, 8}, {6, 9},
		{6, 10}, {7, 10}, {7, 11}, {8, 11}, {8, 14}, {9, 12},
		{9, 15}, {10, 12}, {10, 13}, {11, 13}, {11, 14}, {12, 15},
		{12, 16}, {13, 16}, {13, 17}, {14, 17}, {16, 17},
	}
	for _, e := range edges {
		d := g.Coord(e[0]).Dist(g.Coord(e[1]))
		delay := des.Time(d * microsecondsPerUnit * float64(des.Microsecond))
		g.AddEdge(e[0], e[1], delay)
	}
	return g
}

// Host is an end host attached to a backbone router through an access link:
// 24 bytes, so the two records Network.Latency reads are a third of a cache
// line each. A host is named by its index in Network.Hosts.
type Host struct {
	Router      NodeID
	AccessDelay des.Duration // one-way host<->router propagation
	// UplinkMult scales this host's output capacity relative to the
	// session's base per-connection capacity C. 1 (the default) is the
	// paper's homogeneous population; NetworkConfig.UplinkClasses draws
	// heterogeneous multipliers (e.g. a DSL/fibre split).
	UplinkMult float64
}

// UplinkClass is one capacity tier of a heterogeneous host population.
type UplinkClass struct {
	// Mult is the capacity multiplier of hosts in this class.
	Mult float64
	// Weight is the class's relative population share.
	Weight float64
}

// Network bundles the backbone, its routing tables, and the attached hosts.
// It is the single source of truth for inter-host latency, used both by the
// overlay tree builders (RTT-based clustering) and by the EMcast simulator
// (per-hop propagation delay).
type Network struct {
	Backbone *Graph
	Routes   *APSP
	Hosts    []Host
	byRouter [][]int
}

// NetworkConfig controls host attachment.
type NetworkConfig struct {
	NumHosts int
	// AccessDelayMin/Max bound the uniformly drawn host<->router one-way
	// propagation delay. Defaults: 0.1ms .. 1ms.
	AccessDelayMin des.Duration
	AccessDelayMax des.Duration
	Seed           uint64
	// UplinkClasses, when non-empty, assigns each host a capacity
	// multiplier drawn from the weighted classes. Empty means every host
	// gets multiplier 1 (the paper's homogeneous population). The class
	// draw uses its own generator, so enabling heterogeneity never
	// perturbs the attachment/access-delay stream.
	UplinkClasses []UplinkClass
}

func (c *NetworkConfig) fillDefaults() {
	if c.AccessDelayMin <= 0 {
		c.AccessDelayMin = 100 * des.Microsecond
	}
	if c.AccessDelayMax < c.AccessDelayMin {
		c.AccessDelayMax = des.Millisecond
	}
}

// NewNetwork attaches cfg.NumHosts end hosts to the given backbone,
// distributing them across routers deterministically (router weights are
// drawn once from the seed, so some domains are denser than others, as in
// real deployments). It panics if NumHosts <= 0.
func NewNetwork(backbone *Graph, cfg NetworkConfig) *Network {
	net := attach(backbone, cfg, attachStream(cfg.Seed))
	net.Routes = backbone.AllPairs()
	return net
}

// Domains returns the hosts NewNetwork attaches to each router, indexed
// by router, each list ascending: the same draws, without the routes.
func Domains(backbone *Graph, cfg NetworkConfig) [][]int {
	return attach(backbone, cfg, attachStream(cfg.Seed)).byRouter
}

// attachStream is the generator attach draws routers and access delays
// from.
func attachStream(seed uint64) *xrand.Rand { return xrand.New(seed ^ 0xd1b54a32d192ed03) }

// attach is NewNetwork without the routes: every host drawn from rng and
// attached. Per host it draws a router, an access delay and two
// coordinates about the router that no record keeps: those draws are part
// of the stream that defines the network a seed gives, and dropping them
// would move every later host.
func attach(backbone *Graph, cfg NetworkConfig, rng *xrand.Rand) *Network {
	if cfg.NumHosts <= 0 {
		panic("topo: NumHosts must be positive")
	}
	cfg.fillDefaults()
	if backbone.access > 0 {
		cfg.AccessDelayMin, cfg.AccessDelayMax = backbone.access, backbone.access
	}
	n := backbone.NumNodes()
	// Router popularity weights: uniform in [1, 3).
	weights := make([]float64, n)
	total := 0.0
	for i := range weights {
		weights[i] = 1 + 2*rng.Float64()
		total += weights[i]
	}
	net := &Network{
		Backbone: backbone,
		Hosts:    make([]Host, cfg.NumHosts),
		byRouter: make([][]int, n),
	}
	// Capacity classes draw from a separate stream (see UplinkClasses).
	var crng *xrand.Rand
	var classTotal float64
	if len(cfg.UplinkClasses) > 0 {
		crng = xrand.New(cfg.Seed ^ 0x94d049bb133111eb)
		for _, c := range cfg.UplinkClasses {
			if c.Mult <= 0 || c.Weight <= 0 {
				panic("topo: uplink class Mult and Weight must be positive")
			}
			classTotal += c.Weight
		}
	}
	for h := 0; h < cfg.NumHosts; h++ {
		// Weighted router choice.
		pick := rng.Float64() * total
		router := NodeID(n - 1)
		for i, w := range weights {
			if pick < w {
				router = NodeID(i)
				break
			}
			pick -= w
		}
		span := float64(cfg.AccessDelayMax - cfg.AccessDelayMin)
		access := cfg.AccessDelayMin + des.Duration(rng.Float64()*span)
		rng.Float64() // the coordinate draws (see above)
		rng.Float64()
		mult := 1.0
		if crng != nil {
			cpick := crng.Float64() * classTotal
			mult = cfg.UplinkClasses[len(cfg.UplinkClasses)-1].Mult
			for _, c := range cfg.UplinkClasses {
				if cpick < c.Weight {
					mult = c.Mult
					break
				}
				cpick -= c.Weight
			}
		}
		net.Hosts[h] = Host{Router: router, AccessDelay: access, UplinkMult: mult}
		net.byRouter[router] = append(net.byRouter[router], h)
	}
	return net
}

// HostsAtRouter returns the IDs of hosts attached to router r — the
// paper's "local domain" for DSCT construction — in attachment order,
// which is ascending host ID (overlay.BuildDSCT relies on that).
func (n *Network) HostsAtRouter(r NodeID) []int { return n.byRouter[r] }

// Latency returns the one-way propagation delay between two hosts:
// access + backbone shortest path + access. Hosts on the same router
// communicate through it (both access links, no backbone hops).
func (n *Network) Latency(a, b int) des.Duration {
	ha, hb := &n.Hosts[a], &n.Hosts[b]
	if a == b {
		return 0
	}
	core := des.Duration(0)
	if ha.Router != hb.Router {
		core = n.Routes.Delay[ha.Router][hb.Router]
	}
	return ha.AccessDelay + core + hb.AccessDelay
}

// RTT returns the round-trip time between two hosts, the metric DSCT and
// NICE use for "closest member" decisions.
func (n *Network) RTT(a, b int) des.Duration { return 2 * n.Latency(a, b) }

// RouterPath returns the router sequence a's packets traverse to reach b
// (excluding the access links), or nil for hosts on a shared router.
func (n *Network) RouterPath(a, b int) []NodeID {
	ra, rb := n.Hosts[a].Router, n.Hosts[b].Router
	if ra == rb {
		return []NodeID{ra}
	}
	return n.Routes.Path(ra, rb)
}
