package overlay

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"testing"

	"repro/internal/des"
	"repro/internal/topo"
	"repro/internal/xrand"
)

// checkTakes loads ids into idx, removes ids[0] as the cluster walk
// removes its first pivot, and drives the index through a sequence of
// takes, holding each to refSortByRTT over the members still left: the k
// nearest in (RTT, id) order. Each take's pivot is, in turn, a member
// already taken (the walk's pivots) or a host not among the members left;
// size draws its k from the number left.
func checkTakes(t *testing.T, net *topo.Network, idx *rttIndex, ids []int, rng *xrand.Rand, size func(left int) int) {
	t.Helper()
	idx.load(ids)
	if !idx.remove(ids[0]) {
		t.Fatalf("host %d not loaded", ids[0])
	}
	left, taken := slices.Clone(ids[1:]), ids[:1:1]
	for step := 0; len(left) > 0; step++ {
		p := taken[rng.Intn(len(taken))]
		if h := rng.Intn(len(net.Hosts)); step%2 == 0 && !slices.Contains(left, h) {
			p = h
		}
		k := size(len(left))
		want := slices.Clone(left)
		refSortByRTT(net, p, want)
		got := make([]int, k)
		idx.take(p, got)
		if !slices.Equal(got, want[:k]) {
			t.Fatalf("take %d from pivot %d, k=%d of %d: got %v, full sort %v", step, p, k, len(left), got, want[:k])
		}
		left, taken = want[k:], append(taken, got...)
	}
	for _, h := range ids {
		if idx.remove(h) {
			t.Fatalf("host %d still in the index after every member was taken", h)
		}
	}
}

// TestRTTIndexMatchesFullSort: every take of the RTT index — k of 0, 1, 2,
// all but one and all of the members left, in turn — returns the prefix a
// full comparator sort of the members left puts first, in the same order,
// from pivots in the set, taken before, and outside it: on a Waxman
// underlay, on a wire underlay where every RTT ties and ids alone decide,
// on single-router layers (one bucket), and on a hub underlay with tied
// access delays, where every spoke router is the same distance from the
// hub and from every other spoke; and on 200 drawn underlays as
// FuzzRTTIndex draws them.
func TestRTTIndexMatchesFullSort(t *testing.T) {
	hub := topo.NewGraph(5)
	for r := 1; r < 5; r++ {
		hub.AddEdge(0, topo.NodeID(r), 2*des.Millisecond)
	}
	nets := map[string]*topo.Network{
		"waxman": topo.NewNetwork(topo.Waxman{N: 30}.Build(4), topo.NetworkConfig{NumHosts: 500, Seed: 4}),
		"wire":   topo.NewNetwork(topo.Wire{}.Build(0), topo.NetworkConfig{NumHosts: 200, Seed: 4}),
		"hub": topo.NewNetwork(hub, topo.NetworkConfig{NumHosts: 200, Seed: 4,
			AccessDelayMin: des.Millisecond / 2, AccessDelayMax: des.Millisecond / 2}),
	}
	rng := xrand.New(31)
	for _, name := range slices.Sorted(maps.Keys(nets)) {
		net := nets[name]
		for trial := 0; trial < 20; trial++ {
			ids := rng.Perm(len(net.Hosts))[:1+rng.Intn(120)]
			if trial%4 == 3 { // one router's members: a single bucket
				ids = net.HostsAtRouter(net.Hosts[ids[0]].Router)
			}
			t.Run(fmt.Sprintf("%s/%d", name, trial), func(t *testing.T) {
				idx := newRTTIndex(net, 2*len(ids))
				turn := trial
				checkTakes(t, net, &idx, ids, rng, func(left int) int {
					turn++
					return min([]int{0, 1, 2, left - 1, left}[turn%5], left)
				})
			})
		}
	}
	for seed := range uint64(200) {
		t.Run(fmt.Sprintf("ties-and-cuts/%d", seed), func(t *testing.T) {
			checkTiesAndCuts(t, seed, uint8(seed), uint8(seed*7), uint8(seed*13))
		})
	}
}

// FuzzRTTIndex holds the RTT index to refSortByRTT on fuzzed underlays
// (checkTiesAndCuts).
func FuzzRTTIndex(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(40), uint8(30))
	f.Add(uint64(7), uint8(1), uint8(10), uint8(10))
	f.Add(uint64(3), uint8(9), uint8(64), uint8(5))
	f.Fuzz(checkTiesAndCuts)
}

// checkTiesAndCuts runs checkTakes on a drawn underlay of a few routers,
// some cut off from others (so their RTTs come out negative), each host
// on a drawn router with an access delay of 0, 1 or 2 µs, so access
// delays and whole RTTs tie and hosts on one router can be 0 apart, with
// take sizes drawn too.
func checkTiesAndCuts(t *testing.T, seed uint64, routers, hosts, members uint8) {
	rng := xrand.New(seed)
	nr, nh := 1+int(routers)%9, 1+int(hosts)%80
	g := topo.NewGraph(nr)
	for a := 1; a < nr; a++ {
		if rng.Intn(4) > 0 { // otherwise a may be cut off
			g.AddEdge(topo.NodeID(rng.Intn(a)), topo.NodeID(a), des.Duration(1+rng.Intn(3))*des.Microsecond)
		}
	}
	net := &topo.Network{Backbone: g, Routes: g.AllPairs(), Hosts: make([]topo.Host, nh)}
	for h := range net.Hosts {
		net.Hosts[h] = topo.Host{Router: topo.NodeID(rng.Intn(nr)), AccessDelay: des.Duration(rng.Intn(3)) * des.Microsecond}
	}
	ids := rng.Perm(nh)[:1+int(members)%nh]
	idx := newRTTIndex(net, len(ids)+min(len(ids), nr))
	checkTakes(t, net, &idx, ids, rng, func(left int) int { return rng.Intn(left + 1) })
}

// TestRTTIndexTakeAllocFree: once its scratch is allocated, loading the
// index and taking from it allocate nothing.
func TestRTTIndexTakeAllocFree(t *testing.T) {
	net := topo.NewNetwork(topo.Waxman{N: 30}.Build(4), topo.NetworkConfig{NumHosts: 500, Seed: 4})
	ids := xrand.New(5).Perm(500)
	idx := newRTTIndex(net, len(ids)+30)
	dst := make([]int, len(ids))
	for _, k := range []int{0, 3, 8, 498, 499} {
		if n := testing.AllocsPerRun(20, func() { idx.load(ids[1:]); idx.take(ids[0], dst[:k]) }); n != 0 {
			t.Errorf("k=%d: %v objects per load and take", k, n)
		}
	}
}

// TestDuplicateMemberIsAnError: a member list that names a host twice is
// an error from every registered strategy and from both flat builders —
// not a panic, and not a tree that fails its own Validate.
func TestDuplicateMemberIsAnError(t *testing.T) {
	net := network(40, 3)
	members := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 3}
	const want = "overlay: duplicate member 3"
	builds := map[string]func() (*Tree, error){
		"flat":       func() (*Tree, error) { return BuildFlat(net, members, 0, 2) },
		"flat-blind": func() (*Tree, error) { return BuildFlatBlind(net, members, 0, 2, 1) },
	}
	for _, name := range StrategyNames() {
		builds[name] = func() (*Tree, error) { return MustStrategy(name).Build(net, members, 0, Config{}) }
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic: %v", r)
				}
			}()
			tr, err := build()
			if err == nil || err.Error() != want {
				t.Fatalf("error %v, want %q (tree valid: %v)", err, want, tr != nil && tr.Validate() == nil)
			}
		})
	}
}

// hierarchyLedger is buildHierarchy counting as it goes: it returns the
// RTTs the scan the index replaced computed — one per unassigned member
// but the pivot, per cluster — and those the index computed.
func hierarchyLedger(t *Tree, net *topo.Network, layer []int, source int, cfg Config, rng *xrand.Rand, idx *rttIndex) (scan, index int) {
	for len(layer) > 1 {
		n := 0
		for w := newClusterWalk(layer, cfg.K, cfg.SizeCap, idx); w.cut < len(layer); n++ {
			scan += len(layer) - w.cut - 1
			cluster := w.next(rng)
			core := pickCore(net, cluster, source)
			for _, m := range cluster {
				if m != core {
					t.setParent(m, core)
				}
			}
			layer[n] = core
		}
		layer = layer[:n]
	}
	return scan, idx.evals
}

// flatLedger is BuildFlat's adoption loop counting as it goes: it returns
// the RTTs the scan the index replaced computed — one per unattached
// member, per host that adopts — and those the index computed.
func flatLedger(t *Tree, net *topo.Network, fanout int) (scan, index int) {
	n := len(t.Members)
	idx := newRTTIndex(net, n+min(n, net.Backbone.NumNodes()))
	idx.load(t.Members)
	idx.remove(t.Source)
	order := append(make([]int, 0, n), t.Source)
	for next := 0; next < len(order) && len(order) < n; next++ {
		scan += n - len(order)
		kids := order[len(order) : len(order)+min(fanout, n-len(order))]
		idx.take(order[next], kids)
		for _, c := range kids {
			t.setParent(c, order[next])
		}
		order = order[:len(order)+len(kids)]
	}
	return scan, idx.evals
}

// TestRTTIndexWorkLedger pins the RTTs the builds of paper-fig6's cells
// compute, a deterministic count of the work behind their wall time: each
// of the three groups' NICE trees over the 665 hosts of the 19-router
// backbone (seed 1, group g's tree seeded xrand.DeriveSeed(1, g), as the
// session compiler seeds it), and a flat tree at fanout 4 — the scan the
// index replaced against the index. The ledger's builds must be the
// builders' own trees.
func TestRTTIndexWorkLedger(t *testing.T) {
	net := network(665, 1)
	members := allMembers(665)
	for g, want := range [][2]int{{43342, 2550}, {40443, 2756}, {40967, 2547}} {
		cfg := Config{Seed: xrand.DeriveSeed(1, g)}
		if err := cfg.fillDefaults(); err != nil {
			t.Fatal(err)
		}
		tr := mustTree(g, members)
		layer := slices.Clone(members)
		rng := xrand.New(cfg.Seed ^ 0x9e3779b97f4a7c15)
		rng.ShuffleInts(layer)
		idx := newRTTIndex(net, len(layer)+min(len(layer), net.Backbone.NumNodes()))
		scan, index := hierarchyLedger(tr, net, layer, g, cfg, rng, &idx)
		sameEdges(t, tr, mustNICE(t, net, members, g, cfg))
		t.Logf("NICE group %d: %d RTTs scanned, %d through the index", g, scan, index)
		if got := [2]int{scan, index}; got != want {
			t.Errorf("NICE group %d: %v RTTs (scan, index), pinned %v", g, got, want)
		}
	}
	tr := mustTree(0, members)
	scan, index := flatLedger(tr, net, 4)
	sameEdges(t, tr, mustFlat(t, net, members, 0, 4))
	t.Logf("flat, fanout 4: %d RTTs scanned, %d through the index", scan, index)
	if got, want := [2]int{scan, index}, [2]int{55444, 2761}; got != want {
		t.Errorf("flat: %v RTTs (scan, index), pinned %v", got, want)
	}
}

// TestGraftIndexWorkLedger pins the work behind a churning tree's graft
// points, a deterministic count beside their wall time: a DSCT tree over
// 600 of churn-storm's population (2000 hosts on a 64-router Waxman
// underlay) takes 600 seeded joins and leaves, each leave's orphans
// repaired at once, with a partition of up to eight subtrees open over
// the middle third and healed after it. For every graft point the ledger
// counts the attached members the walk the index replaced visited — all
// of them — against the candidates the index popped and the heads it
// keyed, and holds each pick to the oracle.
func TestGraftIndexWorkLedger(t *testing.T) {
	const hosts, members, steps = 2000, 600, 600
	net := topo.NewNetwork(topo.Waxman{N: 64}.Build(1), topo.NetworkConfig{NumHosts: hosts, Seed: 1})
	strat := MustStrategy("dsct")
	tr, err := strat.Build(net, allMembers(members), 0, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lim := strat.Limits(Config{}, hosts)
	var calls, walked int
	graftPoint := func(h, subHeight int) (int, error) {
		calls++
		tr.walk(tr.slotOf(tr.Source), none, nil, func(int32, int, des.Duration) { walked++ })
		want, _, _ := oracleGraftPoint("dsct", net, tr, h, subHeight, lim)
		p, err := tr.GraftPoint(net, h, subHeight, lim.MaxFanout, lim.MaxHeight)
		if p != want {
			t.Fatalf("graft point of %d = %d, %v; oracle %d", h, p, err, want)
		}
		return p, err
	}
	rng := xrand.New(1)
	var parted []int
	for step := 0; step < steps; step++ {
		switch h := rng.Intn(hosts); {
		case step == steps/3:
			for range 8 {
				if v := tr.Members[rng.Intn(len(tr.Members))]; v != tr.Source && tr.Attached(v) {
					if err := tr.Detach(v); err != nil {
						t.Fatal(err)
					}
					parted = append(parted, v)
				}
			}
			sort.Ints(parted)
		case step == 2*steps/3:
			if _, err := tr.RepairWith(parted, graftPoint); err != nil {
				t.Fatal(err)
			}
			parted = nil
		case !isMember(tr, h):
			p, err := graftPoint(h, 0)
			if err == nil {
				err = tr.Graft(h, p)
			}
			if err != nil {
				t.Fatal(err)
			}
		case h != tr.Source && tr.Attached(h):
			orphans, err := tr.Prune(h)
			if err == nil {
				_, err = tr.RepairWith(orphans, graftPoint)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	got := [4]int{calls, walked, tr.live.popped, tr.live.keyed}
	t.Logf("%d graft points: %d members walked, %d popped from the index, %d heads keyed", got[0], got[1], got[2], got[3])
	if want := [4]int{615, 414881, 1711, 41011}; got != want {
		t.Errorf("(graft points, walked, popped, keyed) = %v, pinned %v", got, want)
	}
}
