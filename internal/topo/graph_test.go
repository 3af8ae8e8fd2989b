package topo

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/des"
	"repro/internal/xrand"
)

func lineGraph(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1), des.Millisecond)
	}
	return g
}

func TestAddEdgeValidation(t *testing.T) {
	g := NewGraph(3)
	cases := []func(){
		func() { g.AddEdge(0, 0, 1) }, // self loop
		func() { g.AddEdge(0, 5, 1) }, // out of range
		func() { g.AddEdge(0, 1, 0) }, // zero delay
		func() { NewGraph(0) },        // empty graph
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestEdgesAreUndirected(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1, des.Millisecond)
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Fatalf("degrees %d/%d", g.Degree(0), g.Degree(1))
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if g.Neighbors(1)[0].To != 0 {
		t.Fatal("reverse edge missing")
	}
}

// Dijkstra runs AllPairs' search from src alone: the delay to every node
// (negative where unreachable) and each node's predecessor.
func (g *Graph) Dijkstra(src NodeID) (dist []des.Duration, prev []NodeID) {
	dist = make([]des.Duration, g.n)
	s := search{prev: make([]NodeID, g.n)}
	s.run(g, src, dist, make([]NodeID, g.n))
	return dist, s.prev
}

func TestDijkstraLine(t *testing.T) {
	g := lineGraph(5)
	dist, prev := g.Dijkstra(0)
	for i := 0; i < 5; i++ {
		want := des.Duration(i) * des.Millisecond
		if dist[i] != want {
			t.Fatalf("dist[%d] = %v, want %v", i, dist[i], want)
		}
	}
	for v := NodeID(1); v < 5; v++ {
		if prev[v] != v-1 {
			t.Fatalf("prev[%d] = %d, want %d", v, prev[v], v-1)
		}
	}
}

func TestDijkstraPicksShorterRoute(t *testing.T) {
	// 0-1-2 costs 2ms, direct 0-2 costs 5ms.
	g := NewGraph(3)
	g.AddEdge(0, 1, des.Millisecond)
	g.AddEdge(1, 2, des.Millisecond)
	g.AddEdge(0, 2, 5*des.Millisecond)
	dist, prev := g.Dijkstra(0)
	if dist[2] != 2*des.Millisecond {
		t.Fatalf("dist[2] = %v", dist[2])
	}
	if prev[2] != 1 || prev[1] != 0 {
		t.Fatalf("prev = %v, want the route 0-1-2", prev)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, des.Millisecond)
	g.AddEdge(2, 3, des.Millisecond)
	dist, prev := g.Dijkstra(0)
	if dist[2] != -1 || dist[3] != -1 {
		t.Fatalf("unreachable dist = %v/%v", dist[2], dist[3])
	}
	if prev[3] != -1 {
		t.Fatal("unreachable node should have no predecessor")
	}
	if !g.Connected() {
		// expected: the graph is disconnected
	} else {
		t.Fatal("Connected() on a disconnected graph")
	}
}

func TestPathToSelf(t *testing.T) {
	// The source's own route is empty: distance 0 and no predecessor.
	g := lineGraph(3)
	dist, prev := g.Dijkstra(1)
	if dist[1] != 0 || prev[1] != -1 {
		t.Fatalf("self route: dist %v, prev %d", dist[1], prev[1])
	}
}

func TestAPSPPathAndNextHop(t *testing.T) {
	g := lineGraph(4)
	a := g.AllPairs()
	path := a.Path(0, 3)
	want := []NodeID{0, 1, 2, 3}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v", path)
		}
	}
	if got := a.Path(2, 2); len(got) != 1 {
		t.Fatalf("self path = %v", got)
	}
}

func randomConnectedGraph(rng *xrand.Rand, n int) *Graph {
	g := NewGraph(n)
	// Random spanning tree first, then extra chords.
	for i := 1; i < n; i++ {
		j := NodeID(rng.Intn(i))
		g.AddEdge(NodeID(i), j, des.Duration(1+rng.Intn(1000))*des.Microsecond)
	}
	extra := rng.Intn(n)
	for e := 0; e < extra; e++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			g.AddEdge(NodeID(a), NodeID(b), des.Duration(1+rng.Intn(1000))*des.Microsecond)
		}
	}
	return g
}

// Property: Dijkstra-based APSP agrees with Floyd-Warshall on random graphs.
func TestQuickAPSPMatchesFloydWarshall(t *testing.T) {
	rng := xrand.New(99)
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(20)
		g := randomConnectedGraph(rng, n)
		apsp := g.AllPairs()
		fw := g.FloydWarshall()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if apsp.Delay[i][j] != fw[i][j] {
					t.Fatalf("trial %d: delay[%d][%d] dijkstra=%v fw=%v",
						trial, i, j, apsp.Delay[i][j], fw[i][j])
				}
			}
		}
	}
}

// Property: APSP path delays telescope to the distance matrix.
func TestQuickAPSPPathConsistency(t *testing.T) {
	rng := xrand.New(123)
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(15)
		g := randomConnectedGraph(rng, n)
		apsp := g.AllPairs()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				path := apsp.Path(NodeID(i), NodeID(j))
				if path == nil {
					t.Fatalf("nil path in connected graph %d->%d", i, j)
				}
				var total des.Duration
				for k := 0; k+1 < len(path); k++ {
					// find min edge delay between path[k], path[k+1]
					best := des.Duration(1) << 62
					for _, e := range g.Neighbors(path[k]) {
						if e.To == path[k+1] && e.Delay < best {
							best = e.Delay
						}
					}
					total += best
				}
				if total != apsp.Delay[i][j] {
					t.Fatalf("path delay %v != matrix %v for %d->%d", total, apsp.Delay[i][j], i, j)
				}
			}
		}
	}
}

func TestPointDist(t *testing.T) {
	p, q := Point{0, 0}, Point{3, 4}
	if d := p.Dist(q); d != 5 {
		t.Fatalf("dist = %v", d)
	}
	if d := p.Dist(p); d != 0 {
		t.Fatalf("self dist = %v", d)
	}
}

// Property: triangle inequality for shortest-path delays.
func TestQuickTriangleInequality(t *testing.T) {
	rng := xrand.New(7)
	g := randomConnectedGraph(rng, 12)
	apsp := g.AllPairs()
	f := func(a, b, c uint8) bool {
		i, j, k := int(a)%12, int(b)%12, int(c)%12
		return apsp.Delay[i][j] <= apsp.Delay[i][k]+apsp.Delay[k][j]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDijkstraBackbone(b *testing.B) {
	g := Backbone19()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Dijkstra(NodeID(i % BackboneNodes))
	}
}

func BenchmarkAllPairsBackbone(b *testing.B) {
	g := Backbone19()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AllPairs()
	}
}

// refAllPairs is the all-pairs search AllPairs replaced, kept as its
// reference: from every source, a linear scan settles the lowest-id
// nearest unsettled node, and each destination's first hop is found by
// walking its predecessors back to the source.
func refAllPairs(g *Graph) (delay [][]des.Duration, next [][]NodeID) {
	delay, next = make([][]des.Duration, g.n), make([][]NodeID, g.n)
	for s := 0; s < g.n; s++ {
		dist, prev, visited := make([]des.Duration, g.n), make([]NodeID, g.n), make([]bool, g.n)
		for i := range dist {
			dist[i], prev[i] = inf, -1
		}
		dist[s] = 0
		for {
			best, bestD := NodeID(-1), inf
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
					dist[e.To], prev[e.To] = nd, best
				}
			}
		}
		next[s] = make([]NodeID, g.n)
		for d := range dist {
			next[s][d] = -1
			if dist[d] == inf {
				dist[d] = -1
				continue
			}
			if d == s {
				continue
			}
			v := NodeID(d)
			for prev[v] != NodeID(s) {
				v = prev[v]
			}
			next[s][d] = v
		}
		delay[s] = dist
	}
	return delay, next
}

// tiedGraph is a random graph whose link delays are 1, 2 or 3 ms, so many
// destinations are reached by several shortest paths of equal delay and
// the search's settle order decides which one routes. Some seeds leave it
// disconnected.
func tiedGraph(rng *xrand.Rand, n int) *Graph {
	g := NewGraph(n)
	for e := 0; e < 2*n; e++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			g.AddEdge(NodeID(a), NodeID(b), des.Duration(1+rng.Intn(3))*des.Millisecond)
		}
	}
	return g
}

// TestAllPairsMatchesReference: the heap search, striped over workers,
// gives every delay and every next hop the linear scan gives — on the
// paper's backbone, on 128- and 256-router Waxman underlays (several
// workers each where GOMAXPROCS allows), and on random graphs whose tied
// delays make the tie order matter, some of them disconnected.
func TestAllPairsMatchesReference(t *testing.T) {
	graphs := map[string]*Graph{
		"backbone19": Backbone19(),
		"waxman-128": Waxman{N: 128}.Build(3),
		"waxman-256": Waxman{N: 256}.Build(5),
	}
	rng := xrand.New(41)
	for i := 0; i < 40; i++ {
		graphs[fmt.Sprintf("tied-%d", i)] = tiedGraph(rng, 2+rng.Intn(90))
	}
	for name, g := range graphs {
		a := g.AllPairs()
		delay, next := refAllPairs(g)
		for s := range delay {
			for d := range delay[s] {
				if a.Delay[s][d] != delay[s][d] || a.next[s][d] != next[s][d] {
					t.Fatalf("%s: %d→%d: delay %v next %d, reference %v next %d",
						name, s, d, a.Delay[s][d], a.next[s][d], delay[s][d], next[s][d])
				}
			}
		}
	}
}

// BenchmarkAllPairsWaxman times AllPairs on the Waxman underlays of the
// 10k- and 100k-host builtins.
func BenchmarkAllPairsWaxman(b *testing.B) {
	for _, n := range []int{128, 256} {
		g := Waxman{N: n}.Build(1)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.AllPairs()
			}
		})
	}
}
