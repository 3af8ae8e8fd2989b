package topo

import (
	"testing"
)

func generators() []Generator {
	return []Generator{
		Backbone19Generator{},
		Waxman{},
		Waxman{N: 64},
		TransitStub{},
		TransitStub{Transits: 3, StubsPerTransit: 2, StubSize: 5},
		Ring{},
		Star{},
	}
}

func TestGeneratorsProduceConnectedGraphs(t *testing.T) {
	for _, gen := range generators() {
		for seed := uint64(1); seed <= 5; seed++ {
			g := gen.Build(seed)
			if g.NumNodes() < 2 {
				t.Fatalf("%s(seed %d): %d nodes", gen.Name(), seed, g.NumNodes())
			}
			if !g.Connected() {
				t.Fatalf("%s(seed %d): disconnected graph", gen.Name(), seed)
			}
			for v := 0; v < g.NumNodes(); v++ {
				for _, e := range g.Neighbors(NodeID(v)) {
					if e.Delay <= 0 {
						t.Fatalf("%s(seed %d): edge %d-%d has delay %v",
							gen.Name(), seed, v, e.To, e.Delay)
					}
				}
			}
		}
	}
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	for _, gen := range generators() {
		a, b := gen.Build(7), gen.Build(7)
		if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
			t.Fatalf("%s: same seed, different shape", gen.Name())
		}
		da, db := a.FloydWarshall(), b.FloydWarshall()
		for i := range da {
			for j := range da[i] {
				if da[i][j] != db[i][j] {
					t.Fatalf("%s: same seed, different delays at %d-%d", gen.Name(), i, j)
				}
			}
		}
	}
}

func TestWaxmanSeedsDiffer(t *testing.T) {
	w := Waxman{N: 48}
	a, b := w.Build(1), w.Build(2)
	if a.NumEdges() == b.NumEdges() {
		// Edge counts can collide; fall back to comparing a distance.
		da, _ := a.Dijkstra(0)
		db, _ := b.Dijkstra(0)
		same := true
		for i := range da {
			if da[i] != db[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("Waxman ignores its seed")
		}
	}
}

func TestTransitStubNodeCount(t *testing.T) {
	ts := TransitStub{Transits: 3, StubsPerTransit: 2, StubSize: 5}
	g := ts.Build(1)
	if want := 3 * (1 + 2*5); g.NumNodes() != want {
		t.Fatalf("transit-stub nodes = %d, want %d", g.NumNodes(), want)
	}
}

// Heterogeneous uplinks must be purely additive: enabling classes draws
// from a separate stream, so attachment and access delays stay
// bit-identical to the homogeneous population, and the attachment stream
// ends where it does without classes: one router weight per router, then
// four draws per host (router, access delay and the two coordinate draws
// no record keeps), so a draw added or dropped moves it.
func TestUplinkClassesDoNotPerturbAttachment(t *testing.T) {
	const hosts = 200
	backbone := Backbone19()
	baseCfg := NetworkConfig{NumHosts: hosts, Seed: 5}
	classCfg := NetworkConfig{NumHosts: hosts, Seed: 5,
		UplinkClasses: []UplinkClass{{Mult: 0.5, Weight: 1}, {Mult: 4, Weight: 1}}}
	baseRNG, classRNG := attachStream(baseCfg.Seed), attachStream(classCfg.Seed)
	base, classes := attach(backbone, baseCfg, baseRNG), attach(backbone, classCfg, classRNG)
	want := attachStream(baseCfg.Seed)
	for range backbone.NumNodes() + 4*hosts {
		want.Float64()
	}
	if baseRNG.State() != want.State() || classRNG.State() != want.State() {
		t.Fatalf("attachment stream ends at %#x (homogeneous) and %#x (classes), want %#x: %d router weights and 4 draws per host",
			baseRNG.State(), classRNG.State(), want.State(), backbone.NumNodes())
	}
	sawHalf, sawQuad := false, false
	for i := range base.Hosts {
		b, c := base.Hosts[i], classes.Hosts[i]
		if b.Router != c.Router || b.AccessDelay != c.AccessDelay {
			t.Fatalf("host %d attachment perturbed by uplink classes", i)
		}
		if b.UplinkMult != 1 {
			t.Fatalf("host %d default UplinkMult = %v, want 1", i, b.UplinkMult)
		}
		switch c.UplinkMult {
		case 0.5:
			sawHalf = true
		case 4:
			sawQuad = true
		default:
			t.Fatalf("host %d UplinkMult = %v, not a class multiplier", i, c.UplinkMult)
		}
	}
	if !sawHalf || !sawQuad {
		t.Fatal("class draw never produced one of the two classes")
	}
}

func TestUplinkClassesDeterministic(t *testing.T) {
	cfg := NetworkConfig{NumHosts: 100, Seed: 9,
		UplinkClasses: []UplinkClass{{Mult: 1, Weight: 3}, {Mult: 2, Weight: 1}}}
	a, b := NewNetwork(Backbone19(), cfg), NewNetwork(Backbone19(), cfg)
	for i := range a.Hosts {
		if a.Hosts[i].UplinkMult != b.Hosts[i].UplinkMult {
			t.Fatalf("host %d class draw not deterministic", i)
		}
	}
}

// Wire is the one generator that fixes the access delays: whatever the
// seed or population, every host pair is exactly WireDelay apart.
func TestWirePinsHostDistance(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		net := NewNetwork(Wire{}.Build(seed), NetworkConfig{NumHosts: 4, Seed: seed})
		for a := 0; a < 4; a++ {
			for b := 0; b < 4; b++ {
				if a != b && net.Latency(a, b) != WireDelay {
					t.Fatalf("seed %d: hosts %d-%d are %v apart, want %v", seed, a, b, net.Latency(a, b), WireDelay)
				}
			}
		}
	}
}
