package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/overlay"
	"repro/internal/snap"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// treeBytes serializes a tree through the snapshot codec — the canonical
// byte-level identity the restore path depends on (parents ascending,
// child slices in order).
func treeBytes(t testing.TB, tr *overlay.Tree) []byte {
	t.Helper()
	w := snap.NewWriterSize(1, 0)
	w.Begin(1)
	tr.Snapshot(w, nil)
	w.End()
	b, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// substrateGoldenConfigs spans the compile paths: each regulated strategy,
// the capacity-aware shared tree (implicit membership), and capacity-aware
// per-group trees (explicit membership), plus heterogeneous uplinks.
func substrateGoldenConfigs() map[string]Config {
	partial := make([]GroupSpec, 6)
	for g := range partial {
		members := []int{g}
		for m := 0; m < 300; m++ {
			if (m+g)%3 == 0 && m != g {
				members = append(members, m)
			}
		}
		partial[g] = GroupSpec{Source: g, Members: members}
	}
	return map[string]Config{
		"dsct": {NumHosts: 300, NumGroups: 6, Mix: traffic.MixAudio, Load: 0.8,
			Scheme: SchemeSRL, Seed: 11},
		"nice": {NumHosts: 300, NumGroups: 6, Mix: traffic.MixAudio, Load: 0.8,
			Scheme: SchemeSigmaRho, Strategy: "nice", Seed: 11},
		"spt": {NumHosts: 300, NumGroups: 6, Mix: traffic.MixAudio, Load: 0.8,
			Scheme: SchemeSRL, Strategy: "spt", Seed: 11},
		"greedy": {NumHosts: 300, NumGroups: 6, Mix: traffic.MixAudio, Load: 0.8,
			Scheme: SchemeSRL, Strategy: "greedy", Seed: 11},
		"capaware-shared": {NumHosts: 300, NumGroups: 6, Mix: traffic.MixAudio,
			Load: 0.8, Scheme: SchemeCapacityAware, Seed: 11},
		"capaware-groups": {NumHosts: 300, Groups: partial, Mix: traffic.MixAudio,
			Load: 0.8, Scheme: SchemeCapacityAware, Seed: 11},
		"partial-hetero": {NumHosts: 300, Groups: partial, Mix: traffic.MixAudio,
			Load: 0.4, Scheme: SchemeSRL, Seed: 11,
			UplinkClasses: []topo.UplinkClass{{Mult: 1, Weight: 0.5}, {Mult: 4, Weight: 0.5}}},
	}
}

// TestParallelCompileBitIdentical is the substrate golden: the blueprint
// built across the worker pool must be bit-identical to the sequential
// reference build — every tree's snapshot bytes, the resolved member
// sets, tree configs, and uplink multipliers.
func TestParallelCompileBitIdentical(t *testing.T) {
	for name, cfg := range substrateGoldenConfigs() {
		t.Run(name, func(t *testing.T) {
			cfg.fillDefaults()
			n := cfg.groupCount()
			seq := buildBlueprint(&cfg, n, 1)
			par := buildBlueprint(&cfg, n, 8)
			shared := func(bp *blueprint) bool { return len(bp.trees) > 1 && bp.trees[1] == bp.trees[0] }
			if shared(seq) != shared(par) {
				t.Fatalf("shared tree diverged: seq %v, par %v", shared(seq), shared(par))
			}
			if !reflect.DeepEqual(seq.groups, par.groups) {
				t.Fatal("resolved group specs diverged")
			}
			if !reflect.DeepEqual(seq.mults, par.mults) || seq.minMult != par.minMult {
				t.Fatal("uplink multipliers diverged")
			}
			for g := range seq.trees {
				if !bytes.Equal(treeBytes(t, seq.trees[g]), treeBytes(t, par.trees[g])) {
					t.Fatalf("group %d tree diverged between sequential and parallel build", g)
				}
			}
		})
	}
}

// TestSubstrateCloneIsolation pins that sessions which edit never share
// mutable state: two sessions of one blueprint start on its trees and
// child plan, and each edit — a join, a leave that re-parents orphans, a
// further prune and graft on the editing session's own tree — lands in
// that session's own copy of the group's tree and of the plan, never in
// the other session's and never in the blueprint's, which stays byte for
// byte as it was built. A group neither session edits stays shared.
func TestSubstrateCloneIsolation(t *testing.T) {
	cfg := Config{NumHosts: 120, NumGroups: 4, Mix: traffic.MixAudio, Load: 0.8,
		Scheme: SchemeSRL, Seed: 3, Events: []MembershipEvent{{At: des.Second, Group: 0, Host: 3}}}
	a, b := NewSession(cfg), NewSession(cfg)
	if a.sub.net != b.sub.net || a.sub.bp != b.sub.bp {
		t.Fatal("sessions from one config did not share the blueprint")
	}
	bp := a.sub.bp
	pristine := func() [][]byte {
		var out [][]byte
		for _, tr := range bp.trees {
			out = append(out, treeBytes(t, tr))
		}
		return append(out, planBytes(bp.plan))
	}
	before := pristine()
	a.Start()
	b.Start()
	// The member a leaves and rejoins in group 0 has children, so its
	// orphans re-parent; b's leaver is a leaf.
	t0 := bp.trees[0]
	leaver, leaf := -1, -1
	t0.EachParent(func(p int, _ []int) {
		if p != t0.Source && (leaver < 0 || p < leaver) {
			leaver = p
		}
	})
	for _, m := range t0.Members {
		if m != t0.Source && t0.SubtreeHeight(m) == 0 && leaf < 0 {
			leaf = m
		}
	}
	if leaver < 0 || leaf < 0 {
		t.Fatal("fixture's group 0 has no forwarding member or no leaf")
	}
	a.ctl.apply(MembershipEvent{Group: 0, Host: leaver})
	a.ctl.apply(MembershipEvent{Group: 0, Host: leaver, Join: true})
	if a.ctl.joins != 1 || a.ctl.leaves != 1 {
		t.Fatalf("joins %d, leaves %d: want one of each", a.ctl.joins, a.ctl.leaves)
	}
	b.ctl.apply(MembershipEvent{Group: 0, Host: leaf})
	if a.sub.plan == bp.plan || b.sub.plan == bp.plan || a.sub.plan == b.sub.plan {
		t.Fatal("two editing sessions do not each hold a child plan of their own")
	}
	at, bt := a.sub.groups[0].tree, b.sub.groups[0].tree
	if at == bp.trees[0] || bt == bp.trees[0] || at == bt {
		t.Fatal("two editing sessions do not each hold group 0's tree of their own")
	}
	for g := 1; g < cfg.NumGroups; g++ {
		if a.sub.groups[g].tree != bp.trees[g] || b.sub.groups[g].tree != bp.trees[g] {
			t.Fatalf("group %d, which nobody edited, no longer shares the blueprint's tree", g)
		}
	}
	// Mutating one session's tree — a prune frees a slot and a graft
	// reuses it — must not leak into the other's or a third session's.
	bBytes := treeBytes(t, bt)
	for _, m := range at.Members {
		if m != at.Source {
			if _, err := at.Prune(m); err != nil {
				t.Fatalf("prune member %d: %v", m, err)
			}
			if err := at.Graft(m, at.Source); err != nil {
				t.Fatalf("graft member %d: %v", m, err)
			}
			break
		}
	}
	if !bytes.Equal(treeBytes(t, bt), bBytes) {
		t.Fatal("mutation of one session's tree leaked into another's")
	}
	if c := compileSubstrate(cfg); c.groups[0].tree != bp.trees[0] || c.plan != bp.plan {
		t.Fatal("a third session does not start on the blueprint's tree and plan")
	}
	a.Finish()
	b.Finish()
	for i, want := range before {
		if !bytes.Equal(pristine()[i], want) {
			t.Fatalf("editing sessions changed the blueprint (tree %d of %d, the last entry being the plan)", i, len(before)-1)
		}
	}
}

// planBytes is a child plan's content: its offset index, group ids and
// each host's child lists in slot order.
func planBytes(pl *childPlan) []byte {
	var b []byte
	for _, o := range pl.off {
		b = binary.LittleEndian.AppendUint32(b, uint32(o))
	}
	for _, g := range pl.groups {
		b = binary.LittleEndian.AppendUint32(b, uint32(g))
	}
	for _, es := range pl.kids {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(es)))
		for _, e := range es {
			b = binary.LittleEndian.AppendUint32(b, uint32(e.child))
			b = binary.LittleEndian.AppendUint32(b, uint32(e.mux))
		}
	}
	return b
}

// TestBlueprintCacheKeying pins what shares a blueprint and what must not:
// load/traffic-seed/shard/duration variants hit the same entry, while
// seed, strategy, population, topology and membership changes miss.
func TestBlueprintCacheKeying(t *testing.T) {
	base := Config{NumHosts: 120, NumGroups: 4, Mix: traffic.MixAudio, Load: 0.5,
		Scheme: SchemeSRL, Seed: 3}
	net := compileSubstrate(base).net

	same := []Config{base, base, base}
	same[0].Load = 0.9
	same[1].TrafficSeed = UseSeed(99)
	same[2].Shards = 4
	for i, cfg := range same {
		if compileSubstrate(cfg).net != net {
			t.Errorf("variant %d recompiled the blueprint instead of sharing it", i)
		}
	}

	diff := []Config{base, base, base, base}
	diff[0].Seed = 4
	diff[1].Strategy = "spt"
	diff[2].NumHosts = 121
	diff[3].Topology = topo.Wire{}
	for i, cfg := range diff {
		if compileSubstrate(cfg).net == net {
			t.Errorf("variant %d shared a blueprint across a structural change", i)
		}
	}

	// Capacity-aware trees depend on the fanout bound, a function of load:
	// loads mapping to different bounds must not share.
	ca := base
	ca.Scheme = SchemeCapacityAware
	ca.Load = 0.2
	ca2 := ca
	ca2.Load = 0.9
	if overlay.FanoutBound(ca.Load, 2.0) == overlay.FanoutBound(ca2.Load, 2.0) {
		t.Fatal("test loads map to one fanout bound; pick loads that differ")
	}
	s1, s2 := compileSubstrate(ca), compileSubstrate(ca2)
	if s1.net == s2.net {
		t.Error("capacity-aware substrates at different fanout bounds shared a blueprint")
	}
	if bytes.Equal(treeBytes(t, s1.groups[0].tree), treeBytes(t, s2.groups[0].tree)) {
		t.Error("capacity-aware trees at different fanout bounds came out identical")
	}
	// Strategy picks the capacity-aware flat builder: "" and "dsct" name
	// the location-aware one, "nice" the location-blind one.
	named, blind := ca, ca
	named.Strategy, blind.Strategy = "dsct", "nice"
	if compileSubstrate(named).net != s1.net {
		t.Error(`capacity-aware "" and "dsct" did not share a blueprint`)
	}
	if compileSubstrate(blind).net == s1.net {
		t.Error("capacity-aware location-aware and location-blind builds shared a blueprint")
	}
}

// TestSessionsShareBlueprintSharding: sessions built and restored from one
// blueprint at one shard count share one host partition and one lookahead
// matrix — the blueprint's, which their coordinators read — and running
// them side by side writes neither (make substrate runs this under -race).
// One shard's matrix is the 1×1 of no pair.
func TestSessionsShareBlueprintSharding(t *testing.T) {
	base := Config{NumHosts: 120, NumGroups: 4, Mix: traffic.MixAudio, Load: 0.8, Scheme: SchemeSRL,
		Duration: des.Second, Seed: 3, Topology: topo.Waxman{N: 24}}
	for _, shards := range []int{1, 4} {
		cfg := base
		cfg.Shards = shards
		a, b := NewSession(cfg), NewSession(cfg)
		a.Start()
		a.RunTo(des.Time(cfg.Duration) / 2)
		blob, err := a.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		r, err := Restore(cfg, blob)
		if err != nil {
			t.Fatal(err)
		}
		for name, s := range map[string]*Session{"built": b, "restored": r} {
			if &s.owner[0] != &a.owner[0] || &s.la[0][0] != &a.la[0][0] {
				t.Errorf("shards=%d: a %s session holds a partition or lookahead matrix of its own", shards, name)
			}
		}
		if shards > 1 && a.Shards() < 2 {
			t.Fatalf("shards=%d: the fixture ran on one shard", shards)
		}
		if want := a.Shards(); len(a.la) != want || len(a.la[0]) != want {
			t.Errorf("shards=%d: a %d×%d lookahead matrix for %d shards", shards, len(a.la), len(a.la[0]), want)
		}
		var wg sync.WaitGroup
		for _, s := range []*Session{a, b, r} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.Run()
			}()
		}
		wg.Wait()
		owner := netsim.PartitionHosts(a.sub.net, shards)
		la, _ := netsim.LookaheadMatrix(a.sub.net, owner)
		if !reflect.DeepEqual(a.owner, owner) || !reflect.DeepEqual(a.la, la) {
			t.Errorf("shards=%d: the shared partition or lookahead matrix changed while its sessions ran", shards)
		}
	}
}

// referenceKey is blueprintKey as fmt writes it: the bytes every snapshot
// carries, which blueprintKey must reproduce without fmt.
func referenceKey(cfg *Config, numGroups int) [32]byte {
	h := sha256.New()
	fmt.Fprintf(h, "v1|hosts=%d|seed=%d|groups=%d\n", cfg.NumHosts, cfg.Seed, numGroups)
	fmt.Fprintf(h, "topo=%T%+v\n", cfg.Topology, cfg.Topology)
	fmt.Fprintf(h, "uplinks=%+v\n", cfg.UplinkClasses)
	if cfg.Groups == nil {
		fmt.Fprintf(h, "members=all\n")
	} else {
		for g, spec := range cfg.Groups {
			fmt.Fprintf(h, "g%d src=%d members=%v\n", g, spec.Source, spec.Members)
		}
	}
	if cfg.Scheme == SchemeCapacityAware {
		fmt.Fprintf(h, "capaware tree=%s fanout=%d implicit=%v\n",
			cfg.strategyName(), overlay.FanoutBound(cfg.Load, cfg.CapacityFactor), cfg.Groups == nil)
	} else {
		fmt.Fprintf(h, "regulated strat=%s k=%d\n", cfg.strategyName(), cfg.ClusterK)
	}
	var key [32]byte
	h.Sum(key[:0])
	return key
}

// otherTopology is a generator outside package topo, which blueprintKey
// prints through fmt.
type otherTopology struct{ Routers int }

func (otherTopology) Name() string                    { return "other" }
func (o otherTopology) Build(seed uint64) *topo.Graph { return topo.Waxman{N: o.Routers}.Build(seed) }

// TestBlueprintKeyMatchesFmt holds blueprintKey to the bytes fmt wrote —
// every topology generator, uplink classes, explicit member lists long
// enough to flush its buffer many times, both schemes' tails and floats
// fmt prints in exponent form (TestBlueprintKeyAllocBudget holds what it
// allocates).
func TestBlueprintKeyMatchesFmt(t *testing.T) {
	long := make([]int, 5000)
	for i := range long {
		long[i] = 4999 - i
	}
	explicit := []GroupSpec{{Source: 3, Members: []int{3, 0, 7, 1 << 20}}, {Source: 0}, {Source: 4999, Members: long}}
	topos := []topo.Generator{nil, topo.Backbone19Generator{}, topo.Wire{}, topo.Waxman{N: 128},
		topo.Waxman{N: 24, Alpha: 0.35, Beta: 1e-7, Size: 1e21}, topo.Waxman{Alpha: math.Inf(1), Beta: math.NaN(), Size: -0.0},
		topo.TransitStub{Transits: 4, StubsPerTransit: 3}, topo.Ring{N: 16}, topo.Star{}, otherTopology{Routers: 9}, &topo.Waxman{N: 7}}
	var cfgs []Config
	for i, tp := range topos {
		cfg := Config{NumHosts: 665 + i, Seed: math.MaxUint64 - uint64(i), Topology: tp, Scheme: SchemeSRL, ClusterK: 3 + i}
		switch i % 3 {
		case 1:
			cfg.Groups = explicit
			cfg.UplinkClasses = []topo.UplinkClass{{Mult: 1, Weight: 0.8}, {Mult: 4.5, Weight: 1.0 / 3}}
		case 2:
			cfg.Scheme, cfg.Strategy, cfg.Load, cfg.CapacityFactor = SchemeCapacityAware, "nice", 0.35, 2
			cfg.Groups = explicit[:1]
		}
		cfgs = append(cfgs, cfg)
		cfg.Scheme, cfg.Load, cfg.CapacityFactor = SchemeCapacityAware, 0.8, 1.5
		cfgs = append(cfgs, cfg)
	}
	for i, cfg := range cfgs {
		if got, want := blueprintKey(&cfg, 3), referenceKey(&cfg, 3); got != want {
			t.Errorf("config %d (%T): key %x, fmt's %x", i, cfg.Topology, got[:8], want[:8])
		}
	}
}

// referenceChildren is the pre-arena compileChildren: group-major appends
// with one heap copy per (host, group) slot, each edge's connection slot
// its child's rank among the host's distinct children, found by the
// per-host de-duplication a build once did inline (denseChildren). The
// arena version must produce exactly this structure.
func referenceChildren(sub *substrate) []groupChildren {
	lists := make([][][]int, sub.cfg.NumHosts)
	for g, st := range sub.groups {
		st.tree.EachParent(func(p int, kids []int) {
			for len(lists[p]) <= g {
				lists[p] = append(lists[p], nil)
			}
			lists[p][g] = append([]int(nil), kids...)
		})
	}
	per := make([]groupChildren, sub.cfg.NumHosts)
	for p := range per {
		per[p] = denseChildren(lists[p])
	}
	return per
}

// planChildren returns host id's child sets in pl, with a host that has
// none as the zero value, as referenceChildren leaves it.
func planChildren(pl *childPlan, id int) groupChildren {
	if gc := pl.of(id); len(gc.groups) > 0 {
		return gc
	}
	return groupChildren{}
}

// TestCompileChildrenArena pins the arena-packed children index against
// the reference implementation, checks that a control-plane append to one
// host's view moves it off the arena instead of corrupting the
// neighbouring slot, and pins the plan's layout: its three arenas and a
// four-byte offset per host, no per-host header array, an 8-byte edge per
// (group, child).
func TestCompileChildrenArena(t *testing.T) {
	for name, cfg := range substrateGoldenConfigs() {
		t.Run(name, func(t *testing.T) {
			sub := compileSubstrate(cfg)
			pl := compileChildren(cfg.NumHosts, sub.trees())
			want := referenceChildren(sub)
			slots, edges := 0, 0
			for p := range want {
				if got := planChildren(pl, p); !reflect.DeepEqual(got, want[p]) {
					t.Fatalf("host %d: arena-packed children %v diverged from reference %v", p, got, want[p])
				}
				slots += len(want[p].groups)
				for _, es := range want[p].edges {
					edges += len(es)
				}
			}
			// The plan is its fields: any per-host array beside the offset
			// index shows as a field or as bytes over this sum.
			plan := reflect.ValueOf(pl).Elem()
			size := 0
			for i := 0; i < plan.NumField(); i++ {
				f := plan.Field(i)
				size += f.Cap() * int(f.Type().Elem().Size())
			}
			if wantSize := 4*(cfg.NumHosts+1) + (4+24)*slots + 8*edges; plan.NumField() != 4 || size != wantSize {
				t.Fatalf("plan holds %d fields in %d bytes, want 4 in %d: the three arenas and a 4-byte offset per host", plan.NumField(), size, wantSize)
			}
			// Append to the first host with children; its neighbours'
			// slots must be unaffected (capacity-capped carving).
			var spare blocks[edge]
			for p := range want {
				gc := pl.of(p)
				if len(gc.groups) == 0 {
					continue
				}
				spare.insert(gc.edges[0], len(gc.edges[0]), edge{int32(cfg.NumHosts), 0}) // off-range id: visible if it bleeds
				for q := p + 1; q < len(want); q++ {
					if !reflect.DeepEqual(planChildren(pl, q), want[q]) {
						t.Fatalf("append at host %d corrupted host %d's slots", p, q)
					}
				}
				break
			}
		})
	}
}

// TestCompileChildrenPanicReachesCaller: a panic in compileChildren's
// counting pass — here a tree id past the host count — reaches the caller,
// where a recover can see it, as in every other compile pass, instead of
// killing the process from a worker goroutine.
func TestCompileChildrenPanicReachesCaller(t *testing.T) {
	sub := compileSubstrate(Config{NumHosts: 200, NumGroups: 8, Mix: traffic.MixAudio, Load: 0.8,
		Scheme: SchemeSRL, Seed: 5})
	defer func() {
		if recover() == nil {
			t.Fatal("compileChildren over out-of-range tree ids did not panic")
		}
	}()
	compileChildren(1, sub.trees()) // every parent past host 0 now indexes out of range
}

// TestHostConnsMatchesNewHost pins the connection slots the parallel
// compile gives each edge against the per-host de-duplication newHost
// used to do inline: a host's connections are its distinct children in
// ascending order, every edge names its child's, and a host wired from
// its compiled child sets makes their MUXes in that order.
func TestHostConnsMatchesNewHost(t *testing.T) {
	cfg := Config{NumHosts: 200, NumGroups: 8, Mix: traffic.MixAudio, Load: 0.8,
		Scheme: SchemeSRL, Seed: 5}
	sub := compileSubstrate(cfg)
	pl, want := sub.plan, referenceChildren(sub)
	var sent []int
	env := testEnv(des.New(), &sent)
	for p := range want {
		gc := pl.of(p)
		if !reflect.DeepEqual(planChildren(pl, p), want[p]) {
			t.Fatalf("host %d connection slots diverged: got %v, want %v", p, gc.edges, want[p].edges)
		}
		if len(gc.groups) == 0 {
			continue
		}
		h := newHost(p, env, gc, SchemeCapacityAware)
		prev := -1
		for _, m := range h.fwd.muxes {
			from, to := m.Ends()
			if from != p || to <= prev {
				t.Fatalf("host %d wired its connections out of ascending child order", p)
			}
			prev = to
		}
	}
}
