// Package topo models the underlay network topology: the backbone router
// graph of the paper's Fig. 5, deterministic attachment of group end hosts
// to backbone routers, and shortest-path routing. Overlay hop latencies and
// the DSCT tree's "local domain" partition both derive from this package.
package topo

import (
	"fmt"
	"math"

	"repro/internal/des"
)

// NodeID identifies a router in the backbone graph.
type NodeID int

// Edge is one directed half of a backbone link.
type Edge struct {
	To    NodeID
	Delay des.Duration // propagation delay
}

// Point is a 2-D coordinate used to synthesise geographically plausible
// propagation delays.
type Point struct{ X, Y float64 }

// Dist returns the Euclidean distance between two points.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	// math.Sqrt, not math.Hypot: coordinates are small so overflow is
	// impossible, and this sits on the tree-construction hot path.
	return math.Sqrt(dx*dx + dy*dy)
}

// Graph is an undirected multigraph over n routers.
type Graph struct {
	n      int
	adj    [][]Edge
	coords []Point
	// access, when positive, fixes every host's access delay (see Wire);
	// NewNetwork draws it from NetworkConfig's range otherwise.
	access des.Duration
}

// NewGraph returns an empty graph with n nodes.
func NewGraph(n int) *Graph {
	if n <= 0 {
		panic("topo: graph must have at least one node")
	}
	return &Graph{n: n, adj: make([][]Edge, n), coords: make([]Point, n)}
}

// NumNodes returns the number of routers.
func (g *Graph) NumNodes() int { return g.n }

// SetCoord records the planar coordinate of node v.
func (g *Graph) SetCoord(v NodeID, p Point) { g.coords[v] = p }

// Coord returns the planar coordinate of node v.
func (g *Graph) Coord(v NodeID) Point { return g.coords[v] }

// AddEdge inserts an undirected link between a and b with the given
// propagation delay — all the simulator models of a backbone link: the
// core is taken to be provisioned far above the offered load, every
// contended resource sits at the end hosts. It panics on self-loops or
// out-of-range nodes.
func (g *Graph) AddEdge(a, b NodeID, delay des.Duration) {
	if a == b {
		panic("topo: self loop")
	}
	if int(a) < 0 || int(a) >= g.n || int(b) < 0 || int(b) >= g.n {
		panic(fmt.Sprintf("topo: edge %d-%d out of range [0,%d)", a, b, g.n))
	}
	if delay <= 0 {
		panic("topo: edge delay must be positive")
	}
	g.adj[a] = append(g.adj[a], Edge{To: b, Delay: delay})
	g.adj[b] = append(g.adj[b], Edge{To: a, Delay: delay})
}

// Neighbors returns the outgoing edges of v. The slice is owned by the
// graph; callers must not mutate it.
func (g *Graph) Neighbors(v NodeID) []Edge { return g.adj[v] }

// NumEdges returns the number of undirected links.
func (g *Graph) NumEdges() int {
	total := 0
	for _, es := range g.adj {
		total += len(es)
	}
	return total / 2
}

// Degree returns the number of links incident to v.
func (g *Graph) Degree(v NodeID) int { return len(g.adj[v]) }

// Connected reports whether every node is reachable from node 0.
func (g *Graph) Connected() bool {
	seen := make([]bool, g.n)
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[v] {
			if !seen[e.To] {
				seen[e.To] = true
				count++
				stack = append(stack, e.To)
			}
		}
	}
	return count == g.n
}

const inf = des.Time(1) << 62

// Dijkstra computes single-source shortest path delays from src. It returns
// the delay to every node (infinite delays are reported as negative) and the
// predecessor array for path extraction.
func (g *Graph) Dijkstra(src NodeID) (dist []des.Duration, prev []NodeID) {
	dist = make([]des.Duration, g.n)
	prev = make([]NodeID, g.n)
	visited := make([]bool, g.n)
	for i := range dist {
		dist[i] = inf
		prev[i] = -1
	}
	dist[src] = 0
	// A flat-array priority queue: at the graph sizes used here (19-node
	// backbone) a linear scan beats heap bookkeeping and has no allocation.
	for {
		best := NodeID(-1)
		bestD := inf
		for v := 0; v < g.n; v++ {
			if !visited[v] && dist[v] < bestD {
				best, bestD = NodeID(v), dist[v]
			}
		}
		if best < 0 {
			break
		}
		visited[best] = true
		for _, e := range g.adj[best] {
			if nd := bestD + e.Delay; nd < dist[e.To] {
				dist[e.To] = nd
				prev[e.To] = best
			}
		}
	}
	for i := range dist {
		if dist[i] == inf {
			dist[i] = -1
		}
	}
	return dist, prev
}

// APSP holds all-pairs shortest path delays and next-hop tables.
type APSP struct {
	Delay [][]des.Duration
	next  [][]NodeID
}

// AllPairs runs Dijkstra from every node and assembles routing tables.
func (g *Graph) AllPairs() *APSP {
	a := &APSP{
		Delay: make([][]des.Duration, g.n),
		next:  make([][]NodeID, g.n),
	}
	for s := 0; s < g.n; s++ {
		dist, prev := g.Dijkstra(NodeID(s))
		a.Delay[s] = dist
		a.next[s] = make([]NodeID, g.n)
		for d := 0; d < g.n; d++ {
			a.next[s][d] = -1
			if d == s || dist[d] < 0 {
				continue
			}
			// Walk back from d to find the first hop out of s.
			v := NodeID(d)
			for prev[v] != NodeID(s) {
				v = prev[v]
			}
			a.next[s][d] = v
		}
	}
	return a
}

// Path returns the router sequence src..dst, or nil when unreachable.
func (a *APSP) Path(src, dst NodeID) []NodeID {
	if src == dst {
		return []NodeID{src}
	}
	if a.next[src][dst] < 0 {
		return nil
	}
	path := []NodeID{src}
	for v := src; v != dst; {
		v = a.next[v][dst]
		path = append(path, v)
	}
	return path
}

// FloydWarshall computes all-pairs shortest delays directly; used as a
// cross-check oracle for AllPairs in tests.
func (g *Graph) FloydWarshall() [][]des.Duration {
	d := make([][]des.Duration, g.n)
	for i := range d {
		d[i] = make([]des.Duration, g.n)
		for j := range d[i] {
			if i != j {
				d[i][j] = inf
			}
		}
	}
	for v := 0; v < g.n; v++ {
		for _, e := range g.adj[v] {
			if e.Delay < d[v][e.To] {
				d[v][e.To] = e.Delay
			}
		}
	}
	for k := 0; k < g.n; k++ {
		for i := 0; i < g.n; i++ {
			dik := d[i][k]
			if dik == inf {
				continue
			}
			for j := 0; j < g.n; j++ {
				if nd := dik + d[k][j]; nd < d[i][j] {
					d[i][j] = nd
				}
			}
		}
	}
	for i := range d {
		for j := range d[i] {
			if d[i][j] == inf {
				d[i][j] = -1
			}
		}
	}
	return d
}
