package core

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"repro/internal/des"
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
	tr.Snapshot(w)
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
			if !reflect.DeepEqual(seq.treeCfgs, par.treeCfgs) {
				t.Fatal("tree configs diverged")
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

// TestSubstrateCloneIsolation pins that the trees of a session whose
// control planes write them are clones: two substrates from one blueprint
// never share mutable tree state, and both serialize identically to the
// blueprint's pristine original. (One churn event makes the session such a
// one; a static session reads the blueprint's trees by design —
// TestStaticSessionsShareBlueprintTrees.)
func TestSubstrateCloneIsolation(t *testing.T) {
	cfg := Config{NumHosts: 120, NumGroups: 4, Mix: traffic.MixAudio, Load: 0.8,
		Scheme: SchemeSRL, Seed: 3, Events: []MembershipEvent{{At: des.Second, Group: 0, Host: 3}}}
	a := compileSubstrate(cfg)
	b := compileSubstrate(cfg)
	if a.net != b.net {
		t.Fatal("substrates from one config did not share the blueprint network")
	}
	for g := range a.groups {
		if a.groups[g].tree == b.groups[g].tree {
			t.Fatalf("group %d tree shared between two sessions", g)
		}
		if !bytes.Equal(treeBytes(t, a.groups[g].tree), treeBytes(t, b.groups[g].tree)) {
			t.Fatalf("group %d clone not bit-identical to sibling clone", g)
		}
	}
	// Mutating one session's tree — a prune frees a slot, a graft reuses it
	// and a second one grows the slot slices — must not leak into a third
	// compile.
	at := a.groups[0].tree
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
	if err := at.Graft(cfg.NumHosts, at.Source); err != nil {
		t.Fatalf("graft of a new member: %v", err)
	}
	c := compileSubstrate(cfg)
	if !bytes.Equal(treeBytes(t, b.groups[0].tree), treeBytes(t, c.groups[0].tree)) {
		t.Fatal("mutation of one session's tree leaked into the shared blueprint")
	}
	// A restore's substrate takes nothing of the blueprint's trees: its
	// groups come up empty for the snapshot to fill.
	for g, st := range compile(cfg, true).groups {
		if st.tree != nil || slices.ContainsFunc(st.member, func(w uint64) bool { return w != 0 }) {
			t.Fatalf("group %d of a resume-mode substrate has a tree or members before any snapshot was read", g)
		}
	}
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

// referenceChildren is the pre-arena compileChildren: group-major appends
// with one heap copy per (host, group) slot. The arena version must
// produce exactly this structure.
func referenceChildren(sub *substrate) []groupChildren {
	per := make([]groupChildren, sub.cfg.NumHosts)
	for g, st := range sub.groups {
		g32 := int32(g)
		st.tree.EachParent(func(p int, kids []int) {
			gc := &per[p]
			gc.groups = append(gc.groups, g32)
			gc.kids = append(gc.kids, append([]int(nil), kids...))
		})
	}
	return per
}

// TestCompileChildrenArena pins the arena-packed children index against
// the reference implementation, and checks that a control-plane append
// reallocates off-arena instead of corrupting the neighbouring slot.
func TestCompileChildrenArena(t *testing.T) {
	for name, cfg := range substrateGoldenConfigs() {
		t.Run(name, func(t *testing.T) {
			sub := compileSubstrate(cfg)
			got := sub.compileChildren()
			want := referenceChildren(sub)
			if !reflect.DeepEqual(got, want) {
				t.Fatal("arena-packed children diverged from reference")
			}
			// Append to the first host with children; its neighbours'
			// slots must be unaffected (capacity-capped carving).
			for p := range got {
				if len(got[p].groups) == 0 {
					continue
				}
				g := int(got[p].groups[0])
				got[p].add(g, cfg.NumHosts) // off-range id: visible if it bleeds
				for q := p + 1; q < len(got); q++ {
					if !reflect.DeepEqual(got[q], want[q]) {
						t.Fatalf("append at host %d corrupted host %d's slots", p, q)
					}
				}
				break
			}
		})
	}
}

// TestHostConnsMatchesNewHost pins the parallel wiring plan against the
// per-host de-duplication newHost used to do inline.
func TestHostConnsMatchesNewHost(t *testing.T) {
	cfg := Config{NumHosts: 200, NumGroups: 8, Mix: traffic.MixAudio, Load: 0.8,
		Scheme: SchemeSRL, Seed: 5}
	sub := compileSubstrate(cfg)
	chl := sub.compileChildren()
	conns := hostConns(chl)
	for p := range chl {
		if want := connsOf(chl[p]); !reflect.DeepEqual(conns[p], want) {
			t.Fatalf("host %d wiring plan diverged: got %v, want %v", p, conns[p], want)
		}
	}
}

// TestCachedSessionRunsIdentical pins end-to-end bit-identity across the
// cache: a run on a cold cache and a run on a warm cache (cloned trees)
// produce identical Results, sequential and sharded.
func TestCachedSessionRunsIdentical(t *testing.T) {
	cfg := Config{NumHosts: 150, NumGroups: 4, Mix: traffic.MixAudio, Load: 0.8,
		Scheme: SchemeSRL, Seed: 7, Duration: secs(0.5)}
	FlushSubstrateCache()
	cold := Run(cfg)
	warm := Run(cfg)
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm-cache run diverged from cold-cache run")
	}

	// A restore clones nothing, so nothing it builds may alias the cache: a
	// session restored from the warm cache runs to its end — churn, faults
	// and re-optimization rewrite its trees — and a session built from the
	// same cache afterwards still reproduces the cold result.
	planes := faultBaseConfig(29)
	planes.Reopt = ReoptConfig{Every: 250 * des.Millisecond, MinImprove: 0.02, MaxMoves: 2}
	for _, shards := range []int{1, 4} {
		cfg := planes
		cfg.Shards = shards
		FlushSubstrateCache()
		cold := Run(cfg)
		if cold.Joins+cold.Leaves == 0 || cold.ReoptMoves == 0 || len(cold.Faults) == 0 {
			t.Fatalf("shards=%d: the fixture mutates no tree: %+v", shards, cold)
		}
		s := NewSession(cfg)
		s.Start()
		s.RunTo(des.Time(cfg.Duration) / 8)
		blob, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := Restore(cfg, blob)
		if err != nil {
			t.Fatal(err)
		}
		if got := restored.Finish(); !reflect.DeepEqual(normalizeDiag(got), normalizeDiag(cold)) {
			t.Fatalf("shards=%d: run restored from the warm cache diverged from the cold run", shards)
		}
		if again := Run(cfg); !reflect.DeepEqual(again, cold) {
			t.Fatalf("shards=%d: a session built after a restored one ran to its end diverged from the cold run — the restore wrote through to the cache", shards)
		}
	}
}
