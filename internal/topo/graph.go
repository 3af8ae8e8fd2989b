// Package topo models the underlay network topology: the backbone router
// graph of the paper's Fig. 5, deterministic attachment of group end hosts
// to backbone routers, and shortest-path routing. Overlay hop latencies and
// the DSCT tree's "local domain" partition both derive from this package.
package topo

import (
	"fmt"
	"math"
	"runtime"
	"sync"

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

// search is one single-source shortest-path run's scratch, reused across
// the sources of an AllPairs worker: the predecessor of every node and a
// binary min-heap of (delay, node) entries.
type search struct {
	prev []NodeID
	heap []reach
}

// reach is a heap entry: node v reached at delay d. Entries order by
// (d, v), and a node improved after it was pushed leaves its old entry
// behind to be skipped when popped.
type reach struct {
	d des.Duration
	v NodeID
}

func (a reach) less(b reach) bool { return a.d < b.d || (a.d == b.d && a.v < b.v) }

// run fills dist with the delays from src (-1 where unreachable), s.prev
// with each node's predecessor, and first with the first hop out of src
// toward each node (-1 at src and at unreachable nodes). Nodes settle
// in (delay, id) order — the order a scan for the lowest-id nearest
// unsettled node takes — so the predecessors, and with them the first
// hops, are those of that scan. A node's first hop is its predecessor's,
// carried forward as it settles: the predecessor settled before it.
func (s *search) run(g *Graph, src NodeID, dist []des.Duration, first []NodeID) {
	for i := range dist {
		dist[i], s.prev[i], first[i] = inf, -1, -1
	}
	dist[src] = 0
	h := append(s.heap[:0], reach{0, src})
	for len(h) > 0 {
		top := h[0]
		h = popReach(h)
		if top.d > dist[top.v] {
			continue // superseded by a shorter entry, already settled
		}
		if p := s.prev[top.v]; p == src {
			first[top.v] = top.v
		} else if p >= 0 {
			first[top.v] = first[p]
		}
		for _, e := range g.adj[top.v] {
			if nd := top.d + e.Delay; nd < dist[e.To] {
				dist[e.To] = nd
				s.prev[e.To] = top.v
				h = pushReach(h, reach{nd, e.To})
			}
		}
	}
	s.heap = h
	for i := range dist {
		if dist[i] == inf {
			dist[i] = -1
		}
	}
}

// pushReach adds r to the heap h.
func pushReach(h []reach, r reach) []reach {
	h = append(h, r)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].less(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

// popReach removes the heap's least entry, h[0].
func popReach(h []reach) []reach {
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		l := 2*i + 1
		if l >= last {
			break
		}
		if r := l + 1; r < last && h[r].less(h[l]) {
			l = r
		}
		if !h[l].less(h[i]) {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	return h
}

// APSP holds all-pairs shortest path delays and next-hop tables.
type APSP struct {
	Delay [][]des.Duration
	next  [][]NodeID
}

// sourcesPerWorker is the fewest sources AllPairs hands one worker: a
// graph of fewer than twice as many routers runs on the caller alone.
const sourcesPerWorker = 32

// AllPairs runs Dijkstra from every node and assembles routing tables:
// each row of both tables is a window of one slab, and the sources are
// striped over up to GOMAXPROCS workers, each with one search scratch.
// Every source's run is independent of the others, so the tables do not
// depend on the worker count.
func (g *Graph) AllPairs() *APSP {
	n := g.n
	delay, next := make([]des.Duration, n*n), make([]NodeID, n*n)
	a := &APSP{Delay: make([][]des.Duration, n), next: make([][]NodeID, n)}
	for s := range n {
		a.Delay[s] = delay[s*n : (s+1)*n : (s+1)*n]
		a.next[s] = next[s*n : (s+1)*n : (s+1)*n]
	}
	workers := max(1, min(runtime.GOMAXPROCS(0), n/sourcesPerWorker))
	stripe := func(w int) {
		s := search{prev: make([]NodeID, n)}
		for src := w; src < n; src += workers {
			s.run(g, NodeID(src), a.Delay[src], a.next[src])
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stripe(w)
		}()
	}
	stripe(0)
	wg.Wait()
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
