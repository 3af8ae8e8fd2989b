package overlay

import (
	"reflect"
	"testing"

	"repro/internal/topo"
)

func TestStrategyRegistryNames(t *testing.T) {
	want := []string{"dsct", "greedy", "nice", "spt"}
	if got := StrategyNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("StrategyNames = %v, want %v", got, want)
	}
	if _, err := LookupStrategy("no-such"); err == nil {
		t.Fatal("unknown strategy must not resolve")
	}
	for _, name := range want {
		s, err := LookupStrategy(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != name {
			t.Fatalf("strategy %q reports name %q", name, s.Name())
		}
	}
}

// sameTree asserts two trees have identical parent assignments.
func sameTree(t *testing.T, a, b *Tree) {
	t.Helper()
	if len(a.Members) != len(b.Members) {
		t.Fatalf("sizes differ: %d vs %d", len(a.Members), len(b.Members))
	}
	for _, m := range a.Members {
		if a.Parent(m) != b.Parent(m) {
			t.Fatalf("member %d: parent %d vs %d", m, a.Parent(m), b.Parent(m))
		}
	}
}

// The named "dsct" and "nice" strategies must be the exact legacy
// builders — the substrate's byte-identity depends on it.
func TestClusterStrategiesMatchLegacyBuilders(t *testing.T) {
	net := network(90, 31)
	cfg := Config{Seed: 42}
	viaStrategy, err := MustStrategy("dsct").Build(net, allMembers(90), 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameTree(t, viaStrategy, mustDSCT(t, net, allMembers(90), 3, Config{Seed: 42}))

	viaStrategy, err = MustStrategy("nice").Build(net, allMembers(90), 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameTree(t, viaStrategy, mustNICE(t, net, allMembers(90), 3, Config{Seed: 42}))
}

func TestSPTBuildsValidBoundedTree(t *testing.T) {
	net := network(150, 7)
	tr, err := MustStrategy("spt").Build(net, allMembers(150), 0, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	lim := MustStrategy("spt").Limits(Config{}, 150)
	if tr.MaxFanout() > lim.MaxFanout {
		t.Fatalf("fanout %d exceeds cap %d", tr.MaxFanout(), lim.MaxFanout)
	}
	// Determinism: the same inputs rebuild the same tree.
	again, err := MustStrategy("spt").Build(net, allMembers(150), 0, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sameTree(t, tr, again)
}

// The delay-weighted SPT should beat the proximity-cluster hierarchy on
// its own metric: worst source-to-member propagation delay.
func TestSPTImprovesWorstPathOverDSCT(t *testing.T) {
	net := network(200, 11)
	spt, err := MustStrategy("spt").Build(net, allMembers(200), 0, Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	dsct := mustDSCT(t, net, allMembers(200), 0, Config{Seed: 11})
	worst := func(tr *Tree) float64 {
		w := 0.0
		for _, m := range tr.Members {
			if d := tr.PathLatency(net, m).Seconds(); d > w {
				w = d
			}
		}
		return w
	}
	if worst(spt) >= worst(dsct) {
		t.Fatalf("spt worst path %.6f not better than dsct %.6f", worst(spt), worst(dsct))
	}
}

func TestGreedyRespectsPerHostBudgets(t *testing.T) {
	net := topo.NewNetwork(topo.Backbone19(), topo.NetworkConfig{
		NumHosts: 160,
		Seed:     5,
		UplinkClasses: []topo.UplinkClass{
			{Mult: 0.5, Weight: 0.5},
			{Mult: 2.0, Weight: 0.5},
		},
	})
	tr, err := MustStrategy("greedy").Build(net, allMembers(160), 0, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	lim := MustStrategy("greedy").Limits(Config{}, 160)
	for _, m := range tr.Members {
		budget := greedyBudget(net, m, DefaultGreedyFanout)
		if got := len(children(tr, m)); got > budget {
			t.Fatalf("host %d (mult %.1f) has %d children, budget %d",
				m, net.Hosts[m].UplinkMult, got, budget)
		}
		// FanoutOK — the filter rewires and grafts share — must agree
		// with the per-host budget, not the flat cap.
		if want := len(children(tr, m)) < budget; MustStrategy("greedy").FanoutOK(net, m, len(children(tr, m)), lim) != want {
			t.Fatalf("host %d: FanoutOK disagrees with budget %d at %d children",
				m, budget, len(children(tr, m)))
		}
	}
}

func TestGreedyHomogeneousMatchesFlat(t *testing.T) {
	net := network(120, 9)
	tr, err := MustStrategy("greedy").Build(net, allMembers(120), 0, Config{Seed: 9, Fanout: 3})
	if err != nil {
		t.Fatal(err)
	}
	sameTree(t, tr, mustFlat(t, net, allMembers(120), 0, 3))
}

func TestStrategyGraftPoints(t *testing.T) {
	net := network(100, 13)
	for _, name := range []string{"dsct", "nice", "spt", "greedy"} {
		strat := MustStrategy(name)
		tr, err := strat.Build(net, allMembers(90), 0, Config{Seed: 13})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lim := strat.Limits(Config{}, 100)
		p, err := strat.GraftPoint(net, tr, 95, 0, lim)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !isMember(tr, p) {
			t.Fatalf("%s: graft point %d not a member", name, p)
		}
		if err := tr.Graft(95, p); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// The spt graft rule minimises accumulated path delay, which can differ
// from the RTT-nearest rule when the nearest member sits deep in the
// tree; at minimum the chosen parent must be optimal under its own
// metric among members with free fanout.
func TestSPTGraftPointMinimisesPathDelay(t *testing.T) {
	net := network(80, 17)
	strat := MustStrategy("spt")
	tr, err := strat.Build(net, allMembers(70), 0, Config{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	lim := strat.Limits(Config{}, 80)
	h := 75
	p, err := strat.GraftPoint(net, tr, h, 0, lim)
	if err != nil {
		t.Fatal(err)
	}
	got := tr.PathLatency(net, p) + net.Latency(p, h)
	for _, m := range tr.Members {
		if len(children(tr, m)) >= lim.MaxFanout {
			continue
		}
		if cost := tr.PathLatency(net, m) + net.Latency(m, h); cost < got {
			t.Fatalf("graft point %d cost %v beaten by %d cost %v", p, got, m, cost)
		}
	}
}

func TestReparentMovesSubtree(t *testing.T) {
	net := network(60, 19)
	tr := mustDSCT(t, net, allMembers(60), 0, Config{Seed: 19})
	// Find a member with children whose parent is not the source.
	var w int
	for _, m := range tr.Members {
		if m != tr.Source && len(children(tr, m)) > 0 && tr.Parent(m) != tr.Source {
			w = m
			break
		}
	}
	if w == 0 {
		t.Skip("no movable forwarder")
	}
	kids := append([]int(nil), children(tr, w)...)
	if err := tr.Reparent(w, tr.Source); err != nil {
		t.Fatal(err)
	}
	if tr.Parent(w) != tr.Source {
		t.Fatalf("parent = %d, want source", tr.Parent(w))
	}
	if !reflect.DeepEqual(children(tr, w), kids) {
		t.Fatal("subtree children changed across a reparent")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReparentRejectsBadMoves(t *testing.T) {
	net := network(40, 23)
	tr := mustDSCT(t, net, allMembers(40), 0, Config{Seed: 23})
	var w int
	for _, m := range tr.Members {
		if m != tr.Source && len(children(tr, m)) > 0 {
			w = m
			break
		}
	}
	if w == 0 {
		t.Skip("no forwarder")
	}
	child := children(tr, w)[0]
	if err := tr.Reparent(tr.Source, w); err == nil {
		t.Fatal("reparenting the source must fail")
	}
	if err := tr.Reparent(w, child); err == nil {
		t.Fatal("reparenting under a descendant must fail")
	}
	if err := tr.Reparent(w, tr.Parent(w)); err == nil {
		t.Fatal("reparenting under the current parent must fail")
	}
	if err := tr.Reparent(w, 99); err == nil {
		t.Fatal("reparenting under a non-member must fail")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInSubtree(t *testing.T) {
	net := network(50, 29)
	tr := mustDSCT(t, net, allMembers(50), 0, Config{Seed: 29})
	for _, m := range tr.Members {
		if !tr.InSubtree(tr.Source, m) {
			t.Fatalf("member %d not in the source's subtree", m)
		}
		if m != tr.Source && tr.InSubtree(m, tr.Source) {
			t.Fatalf("source inside %d's subtree", m)
		}
		if !tr.InSubtree(m, m) {
			t.Fatalf("member %d not in its own subtree", m)
		}
	}
}
