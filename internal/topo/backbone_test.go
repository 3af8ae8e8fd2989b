package topo

import (
	"testing"

	"repro/internal/des"
)

func TestBackbone19Shape(t *testing.T) {
	g := Backbone19()
	if g.NumNodes() != BackboneNodes {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 31 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if !g.Connected() {
		t.Fatal("backbone must be connected")
	}
	for v := 0; v < g.NumNodes(); v++ {
		d := g.Degree(NodeID(v))
		if d < 1 || d > 6 {
			t.Fatalf("router %d degree %d outside [1,6]", v, d)
		}
	}
}

func TestBackboneDelaysPlausible(t *testing.T) {
	g := Backbone19()
	for v := 0; v < g.NumNodes(); v++ {
		for _, e := range g.Neighbors(NodeID(v)) {
			if e.Delay < 100*des.Microsecond || e.Delay > 3*des.Millisecond {
				t.Fatalf("link %d-%d delay %v outside plausible band", v, e.To, e.Delay)
			}
		}
	}
	// Diameter sanity: all-pairs delays under ~10ms.
	apsp := g.AllPairs()
	var max des.Duration
	for i := 0; i < g.NumNodes(); i++ {
		for j := 0; j < g.NumNodes(); j++ {
			if apsp.Delay[i][j] > max {
				max = apsp.Delay[i][j]
			}
		}
	}
	if max <= 0 || max > 10*des.Millisecond {
		t.Fatalf("backbone diameter %v outside (0, 10ms]", max)
	}
}

func TestBackboneDeterministic(t *testing.T) {
	a, b := Backbone19(), Backbone19()
	for v := 0; v < a.NumNodes(); v++ {
		na, nb := a.Neighbors(NodeID(v)), b.Neighbors(NodeID(v))
		if len(na) != len(nb) {
			t.Fatalf("router %d neighbor counts differ", v)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("router %d edge %d differs", v, i)
			}
		}
	}
}

func TestNewNetworkAttachment(t *testing.T) {
	net := NewNetwork(Backbone19(), NetworkConfig{NumHosts: 665, Seed: 1})
	if len(net.Hosts) != 665 {
		t.Fatalf("hosts = %d", len(net.Hosts))
	}
	total := 0
	for r := 0; r < BackboneNodes; r++ {
		total += len(net.HostsAtRouter(NodeID(r)))
	}
	if total != 665 {
		t.Fatalf("router partition covers %d hosts", total)
	}
	for id, h := range net.Hosts {
		if h.AccessDelay < 100*des.Microsecond || h.AccessDelay > des.Millisecond {
			t.Fatalf("host %d access delay %v outside defaults", id, h.AccessDelay)
		}
		if int(h.Router) < 0 || int(h.Router) >= BackboneNodes {
			t.Fatalf("host %d router %d", id, h.Router)
		}
	}
}

func TestNetworkDeterministicPerSeed(t *testing.T) {
	a := NewNetwork(Backbone19(), NetworkConfig{NumHosts: 100, Seed: 7})
	b := NewNetwork(Backbone19(), NetworkConfig{NumHosts: 100, Seed: 7})
	c := NewNetwork(Backbone19(), NetworkConfig{NumHosts: 100, Seed: 8})
	for i := range a.Hosts {
		if a.Hosts[i] != b.Hosts[i] {
			t.Fatalf("same seed produced different host %d", i)
		}
	}
	diff := false
	for i := range a.Hosts {
		if a.Hosts[i] != c.Hosts[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical attachments")
	}
}

func TestLatencySymmetricPositive(t *testing.T) {
	net := NewNetwork(Backbone19(), NetworkConfig{NumHosts: 50, Seed: 3})
	for a := 0; a < 50; a += 7 {
		for b := 0; b < 50; b += 5 {
			la, lb := net.Latency(a, b), net.Latency(b, a)
			if la != lb {
				t.Fatalf("latency asymmetric %d<->%d: %v vs %v", a, b, la, lb)
			}
			if a == b && la != 0 {
				t.Fatalf("self latency = %v", la)
			}
			if a != b && la <= 0 {
				t.Fatalf("latency %d->%d = %v", a, b, la)
			}
			if net.RTT(a, b) != 2*la {
				t.Fatal("RTT != 2*latency")
			}
		}
	}
}

func TestLatencySameRouterSkipsBackbone(t *testing.T) {
	net := NewNetwork(Backbone19(), NetworkConfig{NumHosts: 200, Seed: 5})
	var r NodeID = -1
	var pair [2]int
	for router := 0; router < BackboneNodes; router++ {
		hs := net.HostsAtRouter(NodeID(router))
		if len(hs) >= 2 {
			r = NodeID(router)
			pair = [2]int{hs[0], hs[1]}
			break
		}
	}
	if r < 0 {
		t.Skip("no router with two hosts at this seed")
	}
	want := net.Hosts[pair[0]].AccessDelay + net.Hosts[pair[1]].AccessDelay
	if got := net.Latency(pair[0], pair[1]); got != want {
		t.Fatalf("same-router latency %v, want %v", got, want)
	}
}

func TestRouterPath(t *testing.T) {
	net := NewNetwork(Backbone19(), NetworkConfig{NumHosts: 100, Seed: 11})
	// Find two hosts on different routers.
	var a, b = -1, -1
	for i := range net.Hosts {
		for j := range net.Hosts {
			if net.Hosts[i].Router != net.Hosts[j].Router {
				a, b = i, j
				break
			}
		}
		if a >= 0 {
			break
		}
	}
	p := net.RouterPath(a, b)
	if len(p) < 2 {
		t.Fatalf("path = %v", p)
	}
	if p[0] != net.Hosts[a].Router || p[len(p)-1] != net.Hosts[b].Router {
		t.Fatalf("path endpoints wrong: %v", p)
	}
}

func TestDomains(t *testing.T) {
	// The local domains — each router's attached hosts — partition the hosts.
	net := NewNetwork(Backbone19(), NetworkConfig{NumHosts: 665, Seed: 1})
	count, domains := 0, 0
	for r := NodeID(0); r < BackboneNodes; r++ {
		members := net.HostsAtRouter(r)
		if len(members) > 0 {
			domains++
		}
		for _, h := range members {
			if net.Hosts[h].Router != r {
				t.Fatalf("host %d listed at router %d, attached to %d", h, r, net.Hosts[h].Router)
			}
		}
		count += len(members)
	}
	if domains == 0 || count != 665 {
		t.Fatalf("%d domains cover %d hosts", domains, count)
	}
}

func TestNewNetworkPanicsWithoutHosts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewNetwork(Backbone19(), NetworkConfig{})
}

func BenchmarkNewNetwork665(b *testing.B) {
	g := Backbone19()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewNetwork(g, NetworkConfig{NumHosts: 665, Seed: uint64(i)})
	}
}

func BenchmarkLatency(b *testing.B) {
	net := NewNetwork(Backbone19(), NetworkConfig{NumHosts: 665, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Latency(i%665, (i*31)%665)
	}
}
