package overlay

// The graft-point oracle: the per-candidate selector every graft point ran
// before the attached walk replaced it, kept here the way the regulator
// package keeps timerSRL. For each member it climbs the parent edges to
// the source for the depth (and, for spt, the path delay), reads the child
// count, and keeps the best (key, id) per relaxation tier. The selector
// must pick the oracle's parent for every tree, joiner, subtree height and
// limits — including the two relaxation fallbacks and trees with detached
// subtrees.

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/calculus"
	"repro/internal/des"
	"repro/internal/topo"
	"repro/internal/xrand"
)

// Oracle tiers: which relaxation level produced the pick.
const (
	tierFull  = iota // both rules hold
	tierLoose        // fanout relaxed
	tierAny          // fanout and height relaxed
)

// oracleClimb returns m's depth and tree-path delay from the source, and
// whether m is attached at all — today's climb, one parent lookup per hop.
func oracleClimb(net *topo.Network, t *Tree, m int) (int, des.Duration, bool) {
	depth, lat := 0, des.Duration(0)
	for v := m; ; depth++ {
		p, ok := t.ParentOf(v)
		if !ok {
			return 0, 0, false
		}
		if p < 0 {
			return depth, lat, true
		}
		lat += net.Latency(p, v)
		v = p
	}
}

// oracleGraftPoint is the pre-walk selector of strategy name: RTT to h
// under the flat cap and the height bound for the cluster strategies;
// accumulated path delay under the flat cap for spt; RTT under the
// capacity-scaled budget for greedy (the last two have no height rule).
func oracleGraftPoint(name string, net *topo.Network, t *Tree, h, subHeight int, lim Limits) (int, int, error) {
	type candidate struct {
		id  int
		key des.Duration
		ok  bool
	}
	better := func(best candidate, id int, key des.Duration) bool {
		return !best.ok || key < best.key || (key == best.key && id < best.id)
	}
	var tiers [3]candidate
	for _, m := range t.Members {
		if m == h {
			continue
		}
		depth, lat, attached := oracleClimb(net, t, m)
		if !attached {
			continue
		}
		kids := len(children(t, m))
		var key des.Duration
		heightOK, fanoutOK := true, lim.MaxFanout <= 0 || kids < lim.MaxFanout
		switch name {
		case "dsct", "nice":
			key = net.RTT(h, m)
			heightOK = lim.MaxHeight <= 0 || depth+1+subHeight <= lim.MaxHeight
		case "spt":
			key = lat + net.Latency(m, h)
		case "greedy":
			key = net.RTT(h, m)
			fanoutOK = lim.MaxFanout <= 0 || kids < greedyBudget(net, m, lim.MaxFanout)
		}
		if better(tiers[tierAny], m, key) {
			tiers[tierAny] = candidate{m, key, true}
		}
		if heightOK && better(tiers[tierLoose], m, key) {
			tiers[tierLoose] = candidate{m, key, true}
		}
		if heightOK && fanoutOK && better(tiers[tierFull], m, key) {
			tiers[tierFull] = candidate{m, key, true}
		}
	}
	for tier, c := range tiers {
		if c.ok {
			return c.id, tier, nil
		}
	}
	return -1, -1, fmt.Errorf("overlay: no attached member to graft %d under", h)
}

// checkGraftPoint holds strategy name's selector to the oracle for one
// (h, subHeight, limits) probe and returns the oracle's tier (-1 on error).
func checkGraftPoint(t *testing.T, name string, net *topo.Network, tr *Tree, h, subHeight int, lim Limits) int {
	t.Helper()
	want, tier, werr := oracleGraftPoint(name, net, tr, h, subHeight, lim)
	got, err := MustStrategy(name).GraftPoint(net, tr, h, subHeight, lim)
	if (err != nil) != (werr != nil) || got != want {
		t.Fatalf("%s: graft point of %d (subHeight %d, %+v) = %d, %v; oracle %d, %v",
			name, h, subHeight, lim, got, err, want, werr)
	}
	if name == "dsct" {
		if p, err := tr.GraftPoint(net, h, subHeight, lim.MaxFanout, lim.MaxHeight); p != want || (err != nil) != (werr != nil) {
			t.Fatalf("Tree.GraftPoint of %d (subHeight %d, %+v) = %d, %v; oracle %d", h, subHeight, lim, p, err, want)
		}
	}
	return tier
}

// oracleSeq is one seeded sequence of the control plane's and fault
// plane's edits over a tree of one strategy, probing the strategy's graft
// point against the oracle on the way.
type oracleSeq struct {
	name     string
	strat    Strategy
	net      *topo.Network
	tr       *Tree
	own      Limits // the strategy's limits for the population
	rng      *xrand.Rand
	detached []int   // open-partition roots, ascending
	tiers    *[3]int // the oracle's picks by tier, over every probe
}

// pick draws a host passing pred, or -1 after 4·hosts misses.
func (s *oracleSeq) pick(pred func(int) bool) int {
	for tries := 0; tries < 4*len(s.net.Hosts); tries++ {
		if h := s.rng.Intn(len(s.net.Hosts)); pred(h) {
			return h
		}
	}
	return -1
}

func (s *oracleSeq) attached(h int) bool { return h != s.tr.Source && s.tr.Attached(h) }

// repair re-attaches roots in order, checking every choice on the way.
func (s *oracleSeq) repair(t *testing.T, roots []int) {
	t.Helper()
	if _, err := s.tr.RepairWith(roots, func(o, sh int) (int, error) {
		checkGraftPoint(t, s.name, s.net, s.tr, o, sh, s.own)
		return s.strat.GraftPoint(s.net, s.tr, o, sh, s.own)
	}); err != nil {
		t.Fatalf("%s: repair: %v", s.name, err)
	}
}

// step makes one drawn edit — join, leave, batch leave, partition, heal
// or rewire — and probes the graft point with a joiner, each parked root
// at its subtree height, and an attached member (excluded, its subtree
// not), under the strategy's limits, tight ones, and none.
func (s *oracleSeq) step(t *testing.T) {
	t.Helper()
	tr := s.tr
	switch op := s.rng.Intn(6); {
	case op == 0 || tr.Size() < 40: // join
		if h := s.pick(func(h int) bool { return !isMember(tr, h) }); h >= 0 {
			checkGraftPoint(t, s.name, s.net, tr, h, 0, s.own)
			p, err := s.strat.GraftPoint(s.net, tr, h, 0, s.own)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Graft(h, p); err != nil {
				t.Fatal(err)
			}
		}
	case op == 1: // leave of an attached member, repaired at once
		if h := s.pick(s.attached); h >= 0 {
			orphans, err := tr.Prune(h)
			if err != nil {
				t.Fatal(err)
			}
			s.repair(t, orphans)
		}
	case op == 2: // correlated batch: attached or detached victims
		var victims []int
		for n := 1 + s.rng.Intn(4); len(victims) < n; {
			h := s.pick(func(h int) bool { return isMember(tr, h) && h != tr.Source && !slices.Contains(victims, h) })
			if h < 0 {
				break
			}
			victims = append(victims, h)
		}
		orphans, err := tr.PruneAll(victims)
		if err != nil {
			t.Fatal(err)
		}
		s.detached = slices.DeleteFunc(s.detached, func(r int) bool { return slices.Contains(victims, r) })
		s.repair(t, orphans)
	case op == 3: // partition: cut a few attached members loose
		if len(s.detached) == 0 {
			for n := 1 + s.rng.Intn(4); n > 0; n-- {
				if h := s.pick(s.attached); h >= 0 {
					if err := tr.Detach(h); err != nil {
						t.Fatal(err)
					}
					s.detached = append(s.detached, h)
				}
			}
			sort.Ints(s.detached)
		}
	case op == 4: // heal
		roots := s.detached
		s.detached = nil
		s.repair(t, roots)
	case op == 5: // rewire an attached member under an attached non-descendant
		x := s.pick(s.attached)
		y := s.pick(func(y int) bool { return tr.Attached(y) && x >= 0 && !tr.InSubtree(x, y) && y != tr.Parent(x) })
		if x >= 0 && y >= 0 {
			if err := tr.Reparent(x, y); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkLiveIndex(t, tr)
	probes := s.detached
	if h := s.pick(func(h int) bool { return !isMember(tr, h) }); h >= 0 {
		probes = append(slices.Clone(probes), h)
	}
	if h := s.pick(s.attached); h >= 0 {
		probes = append(slices.Clone(probes), h)
	}
	for _, h := range probes {
		sh := tr.SubtreeHeight(h)
		for _, lim := range []Limits{s.own, {MaxFanout: 1 + s.rng.Intn(3), MaxHeight: 1 + s.rng.Intn(4)}, {}} {
			if tier := checkGraftPoint(t, s.name, s.net, tr, h, sh+s.rng.Intn(2), lim); tier >= 0 {
				s.tiers[tier]++
			}
		}
	}
}

// fork runs a Clone and a snapshot-decoded copy of the sequence's tree
// steps edits on, each copy under edits of its own drawn from seed, each
// held to the oracle, and returns them with their final stanzas. Neither
// copy starts with a live index; the original's stanza must not move
// while they run.
func (s *oracleSeq) fork(t *testing.T, seed uint64, steps int) (copies []*Tree, stanzas [][]byte) {
	t.Helper()
	before := stanza(t, s.tr)
	rec := record(t, before)
	decoded := RestoreTree(&rec, len(s.net.Hosts))
	if rec.Err() != nil {
		t.Fatal(rec.Err())
	}
	copies = []*Tree{s.tr.Clone(), decoded}
	for i, c := range copies {
		if c.live != nil {
			t.Fatalf("%s: copy %d starts with a live index", s.name, i)
		}
		f := *s
		f.tr, f.detached, f.rng = c, slices.Clone(s.detached), xrand.New(seed+uint64(i+1)*0x9e3779b97f4a7c15)
		for range steps {
			f.step(t)
		}
		stanzas = append(stanzas, stanza(t, c))
	}
	if !bytes.Equal(stanza(t, s.tr), before) {
		t.Fatalf("%s: the copies' edits reached the original", s.name)
	}
	if !bytes.Equal(stanza(t, copies[0]), stanzas[0]) {
		t.Fatalf("%s: the decoded copy's edits reached the clone", s.name)
	}
	return copies, stanzas
}

// checkLiveIndex holds a tree's live index, once built, to its members:
// each router's bucket chains exactly the members on that router, in
// strict (access delay, id) order, and no slot twice.
func checkLiveIndex(t *testing.T, tr *Tree) {
	t.Helper()
	x := tr.live
	if x == nil {
		return
	}
	seen := 0
	for r, s := range x.head {
		last := rttEntry{key: -1}
		for ; s != none; s = x.link[s] {
			if seen++; seen > len(tr.Members) {
				t.Fatalf("live index chains more slots than the %d members", len(tr.Members))
			}
			id := tr.host[s]
			h := &x.net.Hosts[id]
			e := rttEntry{key: h.AccessDelay, id: id}
			switch {
			case id < 0 || tr.slot[int(id)] != s:
				t.Fatalf("live index holds slot %d (host %d), not a member's", s, id)
			case int(h.Router) != r:
				t.Fatalf("live index files host %d, on router %d, under router %d", id, h.Router, r)
			case !last.nearer(e):
				t.Fatalf("router %d's bucket holds host %d after host %d", r, id, last.id)
			}
			last = e
		}
	}
	if seen != len(tr.Members) {
		t.Fatalf("live index chains %d slots for %d members", seen, len(tr.Members))
	}
}

// TestGraftPointsMatchOracle drives seeded random sequences of graft,
// prune+repair, batch prune+repair, detach, heal and reparent over a tree
// of each strategy — the control plane's and fault plane's call patterns,
// as in TestDynamicsPropertyInvariants and TestFaultCyclesPreserveInvariants
// — and after every step probes the selector against the oracle with a
// joiner, every open-partition root and an attached member, each under
// the strategy's own limits, tight ones that force the fallbacks, and
// none. Every repair choice is checked on the way too, and so is the
// tree's live RTT index after every step. Halfway through, a Clone and a
// snapshot-decoded copy of the tree each run a sequence of their own as
// long again, held to the oracle the same way, and no tree may see
// another's edits. Uplink classes give greedy unequal budgets; the fourth
// network gives every host one access delay, so RTTs tie within a router
// and ids alone order a bucket.
func TestGraftPointsMatchOracle(t *testing.T) {
	const hosts, steps = 140, 250
	for _, name := range StrategyNames() {
		strat := MustStrategy(name)
		var tiers [3]int
		for _, seed := range []uint64{1, 2, 3, 4} {
			cfg := topo.NetworkConfig{
				NumHosts: hosts, Seed: seed,
				UplinkClasses: []topo.UplinkClass{{Mult: 0.5, Weight: 0.5}, {Mult: 2, Weight: 0.5}},
			}
			if seed == 4 {
				cfg.AccessDelayMin, cfg.AccessDelayMax = des.Millisecond, des.Millisecond
			}
			net := topo.NewNetwork(topo.Backbone19(), cfg)
			tr, err := strat.Build(net, allMembers(100), 0, Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			own := strat.Limits(Config{}, hosts)
			if name == "spt" || name == "greedy" {
				own.MaxHeight = calculus.DSCTHeightBoundMax(hosts, 3) // ignored by both: the oracle must agree
			}
			s := oracleSeq{name: name, strat: strat, net: net, tr: tr, own: own,
				rng: xrand.New(seed ^ 0x94d049bb133111eb), tiers: &tiers}
			var copies []*Tree
			var stanzas [][]byte
			for step := 0; step < steps; step++ {
				if step == steps/2 {
					copies, stanzas = s.fork(t, seed, steps)
				}
				s.step(t)
			}
			for i, c := range copies {
				if !bytes.Equal(stanza(t, c), stanzas[i]) {
					t.Fatalf("%s seed %d: the original's edits reached copy %d", name, seed, i)
				}
			}
		}
		// A chain under a one-child cap: every member but the leaf is full,
		// so excluding the leaf leaves only full candidates — the one way to
		// reach the fanout fallback of a rule with no height bound, where an
		// attached leaf always has room.
		net := network(20, 9)
		chain, err := BuildFlat(net, allMembers(6), 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		for h := range 8 {
			for _, lim := range []Limits{{MaxFanout: 1}, {MaxFanout: 1, MaxHeight: 3}} {
				if tier := checkGraftPoint(t, name, net, chain, h, 0, lim); tier >= 0 {
					tiers[tier]++
				}
			}
		}
		t.Logf("%s: oracle picks by tier (full, fanout relaxed, both relaxed) = %v", name, tiers)
		if tiers[tierFull] == 0 || tiers[tierLoose] == 0 {
			t.Errorf("%s: probes never reached both the strict pick and the fanout fallback: %v", name, tiers)
		}
		if (name == "dsct" || name == "nice") && tiers[tierAny] == 0 {
			t.Errorf("%s: probes never relaxed the height bound: %v", name, tiers)
		}
	}
}

// TestGraftPointAllocFree: a graft point on a warm tree reads the tree and
// allocates nothing, for every strategy — the walk and the live index run
// on the tree's own scratch and the rule closures stay on the stack. Nor
// does a leaf's leave and rejoin at peak membership (Prune, GraftPoint,
// Graft), which moves the leaf out of its router's bucket and back.
func TestGraftPointAllocFree(t *testing.T) {
	const members = 2000
	net := network(members+50, 5)
	for _, name := range StrategyNames() {
		strat := MustStrategy(name)
		tr, err := strat.Build(net, allMembers(members), 0, Config{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		lim := strat.Limits(Config{}, members+50)
		graft := func() {
			if _, err := strat.GraftPoint(net, tr, members+7, 1, lim); err != nil {
				t.Fatal(err)
			}
		}
		graft() // grow the walk scratch to the tree
		if n := testing.AllocsPerRun(20, graft); n != 0 {
			t.Errorf("%s: GraftPoint on a warm %d-member tree allocates %.1f objects", name, members, n)
		}
		leaf := slices.IndexFunc(tr.Members, func(m int) bool { return m != tr.Source && len(children(tr, m)) == 0 })
		cycle := func() {
			m := tr.Members[leaf]
			if orphans, err := tr.Prune(m); err != nil || orphans != nil {
				t.Fatalf("%s: prune of leaf %d: %v, orphans %v", name, m, err, orphans)
			}
			p, err := strat.GraftPoint(net, tr, m, 0, lim)
			if err == nil {
				err = tr.Graft(m, p)
			}
			if err != nil {
				t.Fatal(err)
			}
			leaf = len(tr.Members) - 1
		}
		cycle()
		if n := testing.AllocsPerRun(20, cycle); n != 0 {
			t.Errorf("%s: a leaf's Prune, GraftPoint and Graft on a warm %d-member tree allocate %.1f objects", name, members, n)
		}
		checkLiveIndex(t, tr)
	}
}

// TestTreeHoldsOneMap pins the slot form: the host→slot index is the only
// map anywhere in a Tree, its walk scratch included.
func TestTreeHoldsOneMap(t *testing.T) {
	var count func(reflect.Type) int
	count = func(typ reflect.Type) int {
		n := 0
		for i := 0; i < typ.NumField(); i++ {
			switch f := typ.Field(i).Type; f.Kind() {
			case reflect.Map:
				n++
			case reflect.Struct:
				n += count(f)
			}
		}
		return n
	}
	if n := count(reflect.TypeOf(Tree{})); n != 1 {
		t.Fatalf("Tree holds %d maps, want exactly the host→slot index", n)
	}
}
