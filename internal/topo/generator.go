package topo

import (
	"math"

	"repro/internal/des"
	"repro/internal/xrand"
)

// Generator builds an underlay router graph from a seed. The paper's fixed
// 19-router backbone is one instance; the others synthesise families of
// topologies (random Waxman graphs, transit-stub hierarchies, ring/star
// degenerate cases) so the scenario layer can ask "does the result survive
// a different underlay?" without touching the simulation engines. Every
// generator must return a connected graph with positive delays and
// capacities; Build must be a pure function of the seed.
type Generator interface {
	// Name identifies the family for CLI/registry output.
	Name() string
	// Build synthesises the graph. Implementations mix the seed with a
	// family-specific constant so distinct families fed the same seed do
	// not correlate.
	Build(seed uint64) *Graph
}

// delayFor converts planar distance to a propagation delay at the same
// ~5 µs/unit scale the paper backbone uses, clamped to a positive floor so
// coincident points still yield a legal edge.
func delayFor(d float64) des.Duration {
	delay := des.Time(d * microsecondsPerUnit * float64(des.Microsecond))
	if delay < 10*des.Microsecond {
		delay = 10 * des.Microsecond
	}
	return delay
}

// connect adds an edge a-b with distance-derived delay unless it exists.
func connect(g *Graph, a, b NodeID) {
	if a == b {
		return
	}
	for _, e := range g.Neighbors(a) {
		if e.To == b {
			return
		}
	}
	g.AddEdge(a, b, delayFor(g.Coord(a).Dist(g.Coord(b))))
}

// stitch makes g connected: every node unreachable from node 0 is linked
// to its nearest reachable node, in ascending node order (deterministic).
func stitch(g *Graph) {
	n := g.NumNodes()
	seen := make([]bool, n)
	var walk func(v NodeID)
	walk = func(v NodeID) {
		seen[v] = true
		for _, e := range g.Neighbors(v) {
			if !seen[e.To] {
				walk(e.To)
			}
		}
	}
	walk(0)
	for v := 1; v < n; v++ {
		if seen[v] {
			continue
		}
		best, bestD := NodeID(-1), math.Inf(1)
		for u := 0; u < n; u++ {
			if !seen[u] {
				continue
			}
			if d := g.Coord(NodeID(v)).Dist(g.Coord(NodeID(u))); d < bestD {
				best, bestD = NodeID(u), d
			}
		}
		connect(g, NodeID(v), best)
		walk(NodeID(v))
	}
}

// Backbone19Generator wraps the paper's fixed 19-router backbone (Fig. 5)
// in the Generator interface. The seed is ignored: the backbone is the one
// deterministic constant of the evaluation.
type Backbone19Generator struct{}

// Name implements Generator.
func (Backbone19Generator) Name() string { return "backbone19" }

// Build implements Generator.
func (Backbone19Generator) Build(uint64) *Graph { return Backbone19() }

// Waxman generates the classic Waxman (1988) random graph: N routers
// uniform on a Size×Size plane, each pair linked with probability
// α·exp(−d/(β·L)) where L is the plane diagonal. Larger α densifies the
// graph uniformly; larger β favours long-haul links. The result is
// stitched to connectivity (isolated routers attach to their nearest
// reachable neighbour), so every seed yields a usable underlay.
type Waxman struct {
	N     int     // routers; default 32
	Alpha float64 // edge probability scale; default 0.35
	Beta  float64 // distance decay scale; default 0.25
	Size  float64 // plane edge length; default 1000 units
}

func (w Waxman) withDefaults() Waxman {
	if w.N == 0 {
		w.N = 32
	}
	if w.N < 2 {
		panic("topo: Waxman needs at least two routers")
	}
	if w.Alpha == 0 {
		w.Alpha = 0.35
	}
	if w.Beta == 0 {
		w.Beta = 0.25
	}
	if w.Size == 0 {
		w.Size = 1000
	}
	return w
}

// Name implements Generator.
func (w Waxman) Name() string { return "waxman" }

// Build implements Generator.
func (w Waxman) Build(seed uint64) *Graph {
	w = w.withDefaults()
	rng := xrand.New(seed ^ 0xb5297a4d3a2d9fcb)
	g := NewGraph(w.N)
	for i := 0; i < w.N; i++ {
		g.SetCoord(NodeID(i), Point{X: rng.Float64() * w.Size, Y: rng.Float64() * w.Size})
	}
	l := math.Sqrt2 * w.Size
	for i := 0; i < w.N; i++ {
		for j := i + 1; j < w.N; j++ {
			d := g.Coord(NodeID(i)).Dist(g.Coord(NodeID(j)))
			if rng.Float64() < w.Alpha*math.Exp(-d/(w.Beta*l)) {
				connect(g, NodeID(i), NodeID(j))
			}
		}
	}
	stitch(g)
	return g
}

// TransitStub generates a two-level transit-stub hierarchy in the spirit
// of GT-ITM: Transits core routers on a ring (with seeded chords), each
// with StubsPerTransit stub domains of StubSize routers hanging off it.
// Stub routers chain locally and uplink to their transit router, so
// stub-to-stub paths climb into the core — the regime where overlay
// locality (DSCT's domain partition) matters most.
type TransitStub struct {
	Transits        int // core routers; default 4
	StubsPerTransit int // stub domains per core router; default 3
	StubSize        int // routers per stub domain; default 4
}

func (t TransitStub) withDefaults() TransitStub {
	if t.Transits == 0 {
		t.Transits = 4
	}
	if t.StubsPerTransit == 0 {
		t.StubsPerTransit = 3
	}
	if t.StubSize == 0 {
		t.StubSize = 4
	}
	if t.Transits < 2 || t.StubsPerTransit < 1 || t.StubSize < 1 {
		panic("topo: TransitStub needs >=2 transits and positive stub dimensions")
	}
	return t
}

// Name implements Generator.
func (t TransitStub) Name() string { return "transit-stub" }

// NumNodes returns the total router count of the generated graph.
func (t TransitStub) NumNodes() int {
	t = t.withDefaults()
	return t.Transits * (1 + t.StubsPerTransit*t.StubSize)
}

// Build implements Generator.
func (t TransitStub) Build(seed uint64) *Graph {
	t = t.withDefaults()
	rng := xrand.New(seed ^ 0x1d8e4e27c47d124f)
	n := t.NumNodes()
	g := NewGraph(n)
	// Transit core: a ring of radius 400 centred on (500, 500).
	for i := 0; i < t.Transits; i++ {
		ang := 2 * math.Pi * float64(i) / float64(t.Transits)
		g.SetCoord(NodeID(i), Point{X: 500 + 400*math.Cos(ang), Y: 500 + 400*math.Sin(ang)})
	}
	for i := 0; i < t.Transits; i++ {
		connect(g, NodeID(i), NodeID((i+1)%t.Transits))
	}
	// Seeded chords roughly halve the core diameter.
	for i := 0; i+2 < t.Transits; i += 2 {
		if rng.Bool(0.5) {
			connect(g, NodeID(i), NodeID(i+2))
		}
	}
	// Stub domains: clusters of routers placed near their transit router.
	next := t.Transits
	for tr := 0; tr < t.Transits; tr++ {
		base := g.Coord(NodeID(tr))
		for s := 0; s < t.StubsPerTransit; s++ {
			centre := Point{
				X: base.X + 120*(rng.Float64()-0.5)*2,
				Y: base.Y + 120*(rng.Float64()-0.5)*2,
			}
			for k := 0; k < t.StubSize; k++ {
				g.SetCoord(NodeID(next), Point{
					X: centre.X + 30*(rng.Float64()-0.5),
					Y: centre.Y + 30*(rng.Float64()-0.5),
				})
				if k == 0 {
					connect(g, NodeID(next), NodeID(tr))
				} else {
					connect(g, NodeID(next), NodeID(next-1))
				}
				next++
			}
			// A second uplink from the stub tail guards against one-cut
			// partitions inside larger stubs.
			if t.StubSize > 2 {
				connect(g, NodeID(next-1), NodeID(tr))
			}
		}
	}
	return g
}

// Ring generates an N-router cycle — the worst-diameter degenerate case:
// shortest paths average N/4 hops, so propagation dominates and tree
// locality is nearly meaningless.
type Ring struct {
	N int // routers; default 16
}

// Name implements Generator.
func (r Ring) Name() string { return "ring" }

// Build implements Generator.
func (r Ring) Build(uint64) *Graph {
	if r.N == 0 {
		r.N = 16
	}
	if r.N < 3 {
		panic("topo: ring needs at least three routers")
	}
	g := NewGraph(r.N)
	for i := 0; i < r.N; i++ {
		ang := 2 * math.Pi * float64(i) / float64(r.N)
		g.SetCoord(NodeID(i), Point{X: 500 + 450*math.Cos(ang), Y: 500 + 450*math.Sin(ang)})
	}
	for i := 0; i < r.N; i++ {
		connect(g, NodeID(i), NodeID((i+1)%r.N))
	}
	return g
}

// Star generates a hub-and-spoke graph — the opposite degenerate case:
// every router pair is at most two hops apart, so the underlay contributes
// almost nothing and end-host capacity effects stand alone.
type Star struct {
	N int // routers including the hub; default 16
}

// Name implements Generator.
func (s Star) Name() string { return "star" }

// Build implements Generator.
func (s Star) Build(uint64) *Graph {
	if s.N == 0 {
		s.N = 16
	}
	if s.N < 2 {
		panic("topo: star needs at least two routers")
	}
	g := NewGraph(s.N)
	g.SetCoord(0, Point{X: 500, Y: 500})
	for i := 1; i < s.N; i++ {
		ang := 2 * math.Pi * float64(i-1) / float64(s.N-1)
		g.SetCoord(NodeID(i), Point{X: 500 + 420*math.Cos(ang), Y: 500 + 420*math.Sin(ang)})
		connect(g, NodeID(i), 0)
	}
	return g
}

// Wire generates the degenerate underlay of the paper's Simulation I
// (Fig. 3): a single router that every host hangs off at exactly half of
// WireDelay, so any two hosts sit WireDelay apart — the "short link" from
// the regulated MUX to its sink, with nothing drawn from the seed.
type Wire struct{}

// WireDelay is the one-way propagation delay between any two hosts on a
// Wire underlay.
const WireDelay = des.Millisecond

// Name implements Generator.
func (Wire) Name() string { return "wire" }

// Build implements Generator.
func (Wire) Build(uint64) *Graph {
	g := NewGraph(1)
	g.access = WireDelay / 2
	return g
}
