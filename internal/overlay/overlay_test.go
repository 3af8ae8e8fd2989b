package overlay

import (
	"slices"
	"testing"

	"repro/internal/calculus"
	"repro/internal/topo"
	"repro/internal/xrand"
)

func network(n int, seed uint64) *topo.Network {
	return topo.NewNetwork(topo.Backbone19(), topo.NetworkConfig{NumHosts: n, Seed: seed})
}

func allMembers(n int) []int {
	ms := make([]int, n)
	for i := range ms {
		ms[i] = i
	}
	return ms
}

// children returns a fresh copy of h's direct children in t, in child
// order.
func children(t *Tree, h int) []int {
	var out []int
	if s := t.slotOf(h); s != none {
		for c := t.first[s]; c != none; c = t.next[c] {
			out = append(out, int(t.host[c]))
		}
	}
	return out
}

// isMember reports whether h is in t's member set.
func isMember(t *Tree, h int) bool {
	_, ok := t.slot[h]
	return ok
}

func mustTree(source int, members []int) *Tree {
	t, err := newTree(source, members)
	if err != nil {
		panic(err)
	}
	return t
}

func mustDSCT(t testing.TB, net *topo.Network, members []int, source int, cfg Config) *Tree {
	t.Helper()
	tr, err := BuildDSCT(net, members, source, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func mustNICE(t testing.TB, net *topo.Network, members []int, source int, cfg Config) *Tree {
	t.Helper()
	tr, err := BuildNICE(net, members, source, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func mustFlat(t testing.TB, net *topo.Network, members []int, source, fanout int) *Tree {
	t.Helper()
	tr, err := BuildFlat(net, members, source, fanout)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBuildDSCTSpansAndValidates(t *testing.T) {
	net := network(200, 1)
	tree := mustDSCT(t, net, allMembers(200), 0, Config{Seed: 1})
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tree.Members) != 200 {
		t.Fatalf("size = %d", len(tree.Members))
	}
	if tree.Source != 0 || tree.Parent(0) != -1 {
		t.Fatal("root must be the source")
	}
}

func TestBuildDSCTDeterministic(t *testing.T) {
	net := network(120, 2)
	a := mustDSCT(t, net, allMembers(120), 5, Config{Seed: 9})
	b := mustDSCT(t, net, allMembers(120), 5, Config{Seed: 9})
	for _, m := range a.Members {
		if a.Parent(m) != b.Parent(m) {
			t.Fatalf("member %d parents differ", m)
		}
	}
	c := mustDSCT(t, net, allMembers(120), 5, Config{Seed: 10})
	diff := false
	for _, m := range a.Members {
		if a.Parent(m) != c.Parent(m) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds built identical trees (suspicious)")
	}
}

// Lemma 2 property: for many (n, seed) draws the measured DSCT layer count
// never exceeds the height bound with j1 = 0.
func TestDSCTHeightWithinLemma2Bound(t *testing.T) {
	rng := xrand.New(3)
	for trial := 0; trial < 15; trial++ {
		n := 10 + rng.Intn(600)
		net := network(n, uint64(trial))
		tree := mustDSCT(t, net, allMembers(n), rng.Intn(n), Config{Seed: uint64(trial)})
		if err := tree.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		bound := calculus.DSCTHeightBoundMax(n, 3)
		// The domain partition adds at most the inter-cluster hierarchy on
		// top of the deepest domain; with 19 domains the inter layers are
		// <= ceil(log_3(19+..)) ~ 3, already inside the Lemma 2 count for
		// the sizes we test, since cluster sizes range up to 3k−1 > k.
		if got := tree.Layers(); got > bound+1 {
			t.Fatalf("trial %d: n=%d layers=%d exceeds bound %d", trial, n, got, bound)
		}
	}
}

func TestDSCTSingleMember(t *testing.T) {
	net := network(10, 4)
	tree := mustDSCT(t, net, []int{3}, 3, Config{})
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if tree.Height() != 0 || tree.Layers() != 1 {
		t.Fatalf("height=%d layers=%d", tree.Height(), tree.Layers())
	}
}

func TestDSCTLocalityBeatsNICE(t *testing.T) {
	// DSCT clusters within router domains, so its mean overlay-hop
	// stretch must not exceed NICE's on the same membership (this is the
	// paper's stated reason DSCT wins in Fig. 6).
	net := network(300, 7)
	members := allMembers(300)
	var dsctStretch, niceStretch float64
	for seed := uint64(0); seed < 5; seed++ {
		dsctStretch += mustDSCT(t, net, members, 0, Config{Seed: seed}).Stretch(net)
		niceStretch += mustNICE(t, net, members, 0, Config{Seed: seed}).Stretch(net)
	}
	if dsctStretch >= niceStretch {
		t.Fatalf("DSCT stretch %v >= NICE stretch %v", dsctStretch/5, niceStretch/5)
	}
}

func TestBuildNICEValidates(t *testing.T) {
	net := network(150, 5)
	tree := mustNICE(t, net, allMembers(150), 7, Config{Seed: 3})
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if tree.Source != 7 {
		t.Fatal("wrong source")
	}
}

func TestSubsetMembership(t *testing.T) {
	net := network(100, 6)
	members := []int{2, 3, 5, 8, 13, 21, 34, 55, 89}
	tree := mustDSCT(t, net, members, 13, Config{Seed: 1})
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tree.Members) != len(members) {
		t.Fatalf("size = %d", len(tree.Members))
	}
	for _, m := range members {
		if m != 13 && tree.Parent(m) < 0 {
			t.Fatalf("member %d unattached", m)
		}
	}
}

// BuildDSCT partitions members into local domains by counting sort; the
// trees must equal the definition it replaced — walk every router's
// attached hosts in attachment order and keep the members — whatever order
// the member list arrives in.
func TestDSCTDomainPartitionMatchesAttachmentWalk(t *testing.T) {
	net := topo.NewNetwork(topo.Waxman{N: 32}.Build(4), topo.NetworkConfig{NumHosts: 3000, Seed: 4})
	rng := xrand.New(11)
	for trial := 0; trial < 8; trial++ {
		members := rng.Perm(3000)[:50+rng.Intn(1500)]
		source := members[rng.Intn(len(members))]
		cfg := Config{Seed: uint64(trial)}
		got := mustDSCT(t, net, members, source, cfg)

		want := mustTree(source, members)
		if err := cfg.fillDefaults(); err != nil {
			t.Fatal(err)
		}
		wrng := xrand.New(cfg.Seed ^ 0x5851f42d4c957f2d)
		var cores []int
		for r := 0; r < net.Backbone.NumNodes(); r++ {
			var domain []int
			for _, h := range net.HostsAtRouter(topo.NodeID(r)) {
				if isMember(want, h) {
					domain = append(domain, h)
				}
			}
			if len(domain) > 0 {
				idx := newRTTIndex(net, len(domain)+1)
				cores = append(cores, buildHierarchy(want, net, domain, source, cfg.K, cfg.SizeCap, wrng, &idx))
			}
		}
		idx := newRTTIndex(net, 2*len(cores))
		buildHierarchy(want, net, cores, source, cfg.K, cfg.SizeCap, wrng, &idx)

		for _, m := range members {
			if got.Parent(m) != want.Parent(m) {
				t.Fatalf("trial %d: member %d has parent %d, attachment walk gives %d", trial, m, got.Parent(m), want.Parent(m))
			}
		}
	}
}

func TestCapacityCapShrinksFanoutAndDeepens(t *testing.T) {
	net := network(400, 8)
	members := allMembers(400)
	free := mustDSCT(t, net, members, 0, Config{Seed: 2})
	capped := mustDSCT(t, net, members, 0, Config{Seed: 2, SizeCap: 3})
	if err := capped.Validate(); err != nil {
		t.Fatal(err)
	}
	if capped.MaxFanout() > free.MaxFanout() && free.MaxFanout() > 0 {
		// capped fanout should not exceed the free tree's
		t.Fatalf("capped fanout %d > free fanout %d", capped.MaxFanout(), free.MaxFanout())
	}
	if capped.Layers() <= free.Layers() {
		t.Fatalf("capacity cap did not deepen the tree: %d vs %d layers",
			capped.Layers(), free.Layers())
	}
}

func TestFanoutBound(t *testing.T) {
	cases := []struct {
		load, factor float64
		want         int
	}{
		{0.35, 2.0, 5},
		{0.50, 2.0, 3}, // 4·0.5 = 2.0 is critically loaded; backed off
		{0.75, 2.0, 2},
		{0.95, 2.0, 2}, // clamped
		{0.35, 1.5, 4},
		{0.20, 1.0, 4}, // 5·0.2 = 1.0 critically loaded; backed off
	}
	for _, c := range cases {
		if got := FanoutBound(c.load, c.factor); got != c.want {
			t.Fatalf("FanoutBound(%v,%v) = %d, want %d", c.load, c.factor, got, c.want)
		}
	}
}

func TestCapacityAwareLayersGrowWithLoad(t *testing.T) {
	// The Tables I–III shape: layer count rises as the load grows, while
	// the unconstrained tree's layer count is load-independent.
	net := network(500, 9)
	members := allMembers(500)
	// Capacity-aware cluster cap: the fanout bound plus the core.
	low := mustDSCT(t, net, members, 0, Config{Seed: 4, SizeCap: FanoutBound(0.35, 1.5) + 1})
	high := mustDSCT(t, net, members, 0, Config{Seed: 4, SizeCap: FanoutBound(0.95, 1.5) + 1})
	if low.Layers() >= high.Layers() {
		t.Fatalf("layers low=%d high=%d — no growth with load", low.Layers(), high.Layers())
	}
}

func TestBuildFlatFig1Shapes(t *testing.T) {
	// The paper's Fig. 1: 5 hosts, capacity C = 5ρ. One group ⇒ fanout 5
	// ⇒ star. Two groups ⇒ fanout 2 ⇒ two-level tree.
	net := network(5, 10)
	members := allMembers(5)
	star := mustFlat(t, net, members, 0, 5)
	if err := star.Validate(); err != nil {
		t.Fatal(err)
	}
	if star.Height() != 1 || len(children(star, 0)) != 4 {
		t.Fatalf("fanout-5 tree: height %d, children %d", star.Height(), len(children(star, 0)))
	}
	deep := mustFlat(t, net, members, 0, 2)
	if err := deep.Validate(); err != nil {
		t.Fatal(err)
	}
	if deep.Height() != 2 || len(children(deep, 0)) != 2 {
		t.Fatalf("fanout-2 tree: height %d, children %d", deep.Height(), len(children(deep, 0)))
	}
}

func TestBuildFlatRespectsFanout(t *testing.T) {
	net := network(100, 11)
	tree := mustFlat(t, net, allMembers(100), 0, 3)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if tree.MaxFanout() > 3 {
		t.Fatalf("fanout %d exceeds bound 3", tree.MaxFanout())
	}
}

func TestTreeMetrics(t *testing.T) {
	net := network(50, 12)
	tree := mustDSCT(t, net, allMembers(50), 0, Config{Seed: 6})
	if tree.AvgFanout() <= 0 {
		t.Fatal("avg fanout must be positive")
	}
	if s := tree.Stretch(net); s < 1 {
		t.Fatalf("stretch %v < 1", s)
	}
	max, avg := tree.LinkStress(net)
	if max < 1 || avg <= 0 {
		t.Fatalf("stress max=%d avg=%v", max, avg)
	}
	for _, m := range tree.Members {
		if m == tree.Source {
			continue
		}
		if tree.PathLatency(net, m) <= 0 {
			t.Fatalf("member %d path latency not positive", m)
		}
		if tree.Depth(m) < 1 {
			t.Fatalf("member %d depth %d", m, tree.Depth(m))
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	net := network(30, 13)
	tree := mustDSCT(t, net, allMembers(30), 0, Config{Seed: 1})
	// Detach a member.
	var victim int
	for _, m := range tree.Members {
		if m != tree.Source {
			victim = m
			break
		}
	}
	tree.up[tree.slot[victim]] = cut // the edge goes, the child list keeps it
	if tree.Validate() == nil {
		t.Fatal("validation missed a detached member")
	}
}

func TestValidateCatchesCycle(t *testing.T) {
	net := network(30, 14)
	tree := mustDSCT(t, net, allMembers(30), 0, Config{Seed: 1})
	// Create a cycle between two non-source members.
	var a, b = -1, -1
	for _, m := range tree.Members {
		if m == tree.Source {
			continue
		}
		if a < 0 {
			a = m
		} else {
			b = m
			break
		}
	}
	tree.up[tree.slot[a]] = tree.slot[b]
	tree.up[tree.slot[b]] = tree.slot[a]
	if tree.Validate() == nil {
		t.Fatal("validation missed a cycle")
	}
}

// The public build API reports bad specs as errors, not panics, so a
// scenario sweep can surface the offending configuration.
func TestBuilderErrors(t *testing.T) {
	net := network(10, 15)
	for i, fn := range []func() error{
		func() error { _, err := BuildDSCT(net, nil, 0, Config{}); return err },
		func() error { _, err := BuildDSCT(net, []int{1, 2}, 5, Config{}); return err }, // source not member
		func() error { _, err := BuildDSCT(net, []int{1, 2}, 1, Config{K: 1}); return err },
		func() error { _, err := BuildDSCT(net, []int{1, 2}, 1, Config{SizeCap: 1}); return err },
		func() error { _, err := BuildDSCT(net, []int{1, 10}, 1, Config{}); return err }, // member not a host
		func() error { _, err := BuildDSCT(net, []int{1, -1}, 1, Config{}); return err },
		func() error { _, err := BuildNICE(net, nil, 0, Config{}); return err },
		func() error { _, err := BuildFlat(net, []int{1, 2}, 1, 0); return err },
		func() error { _, err := BuildFlatBlind(net, []int{1, 2}, 5, 2, 1); return err },
	} {
		if fn() == nil {
			t.Fatalf("case %d: no error", i)
		}
	}
	// Internal invariants stay panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("FanoutBound(0,1): no panic")
			}
		}()
		FanoutBound(0, 1)
	}()
}

func TestSetParentGuards(t *testing.T) {
	tr := mustTree(0, []int{0, 1})
	tr.setParent(1, 0)
	for i, fn := range []func(){
		func() { tr.setParent(0, 1) }, // source reparent
		func() { tr.setParent(1, 0) }, // duplicate
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}

// Property: every cluster the in-place walk cuts is within size limits
// and is a window of the layer it walks, and the clusters partition the
// layer: each member exactly once.
func TestQuickClusterize(t *testing.T) {
	net := network(300, 16)
	rng := xrand.New(17)
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(300)
		ids := rng.Perm(300)[:n]
		layer := slices.Clone(ids)
		k := 2 + rng.Intn(3)
		sizeCap := 0
		if rng.Bool(0.5) {
			sizeCap = 2 + rng.Intn(6)
		}
		seen := make(map[int]bool)
		total := 0
		limit := 3*k - 1
		if sizeCap >= 2 && sizeCap < limit {
			limit = sizeCap
		}
		idx := newRTTIndex(net, 2*n)
		for w := newClusterWalk(layer, k, sizeCap, &idx); ; {
			c := w.next(rng)
			if c == nil {
				break
			}
			if len(c) > limit {
				t.Fatalf("trial %d: cluster size %d over limit %d", trial, len(c), limit)
			}
			if len(c) < min(k, limit) && w.cut < n {
				t.Fatalf("trial %d: cluster size %d under %d before the last", trial, len(c), min(k, limit))
			}
			if &c[0] != &layer[total] || cap(c) != len(c) {
				t.Fatalf("trial %d: cluster is not the capacity-capped window of the layer at %d", trial, total)
			}
			for _, m := range c {
				if seen[m] {
					t.Fatalf("trial %d: member %d in two clusters", trial, m)
				}
				seen[m] = true
				total++
			}
		}
		if total != n {
			t.Fatalf("trial %d: clusters cover %d of %d", trial, total, n)
		}
		for _, m := range ids {
			if !seen[m] {
				t.Fatalf("trial %d: member %d in no cluster", trial, m)
			}
		}
	}
}

func BenchmarkBuildDSCT665(b *testing.B) {
	net := network(665, 1)
	members := allMembers(665)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustDSCT(b, net, members, 0, Config{Seed: uint64(i)})
	}
}

func BenchmarkBuildNICE665(b *testing.B) {
	net := network(665, 1)
	members := allMembers(665)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustNICE(b, net, members, 0, Config{Seed: uint64(i)})
	}
}

func BenchmarkBuildFlat665(b *testing.B) {
	net := network(665, 1)
	members := allMembers(665)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustFlat(b, net, members, i%665, 4)
	}
}

func BenchmarkBuildGreedy665(b *testing.B) {
	net := network(665, 1)
	members := allMembers(665)
	greedy := MustStrategy("greedy")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := greedy.Build(net, members, i%665, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
