package overlay

import (
	"testing"

	"repro/internal/calculus"
	"repro/internal/xrand"
)

func TestGraftAddsMemberAndValidates(t *testing.T) {
	net := network(60, 21)
	tree := mustDSCT(t, net, allMembers(50), 0, Config{Seed: 1})
	p, err := tree.GraftPoint(net, 55, 0, 8, calculus.DSCTHeightBoundMax(51, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Graft(55, p); err != nil {
		t.Fatal(err)
	}
	if !isMember(tree, 55) || tree.Parent(55) != p || len(tree.Members) != 51 {
		t.Fatalf("graft bookkeeping wrong: member=%v parent=%d size=%d",
			isMember(tree, 55), tree.Parent(55), len(tree.Members))
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGraftRejectsBadTargets(t *testing.T) {
	net := network(30, 22)
	tree := mustDSCT(t, net, allMembers(20), 0, Config{Seed: 2})
	if err := tree.Graft(5, 0); err == nil {
		t.Fatal("grafting an attached member must fail")
	}
	if err := tree.Graft(0, 1); err == nil {
		t.Fatal("grafting the source must fail")
	}
	if err := tree.Graft(25, 29); err == nil {
		t.Fatal("grafting under a non-member must fail")
	}
}

func TestPruneLeafShrinksTree(t *testing.T) {
	net := network(40, 23)
	tree := mustDSCT(t, net, allMembers(40), 0, Config{Seed: 3})
	var leaf int
	for _, m := range tree.Members {
		if m != tree.Source && len(children(tree, m)) == 0 {
			leaf = m
			break
		}
	}
	orphans, err := tree.Prune(leaf)
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) != 0 {
		t.Fatalf("leaf prune produced %d orphans", len(orphans))
	}
	if isMember(tree, leaf) || len(tree.Members) != 39 {
		t.Fatal("leaf not removed")
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPruneForwarderRepairReattachesOrphans(t *testing.T) {
	net := network(120, 24)
	tree := mustDSCT(t, net, allMembers(120), 0, Config{Seed: 4})
	// Pick the deepest non-source forwarder so the repair has real work.
	victim, most := -1, 0
	for _, m := range tree.Members {
		if m != tree.Source && len(children(tree, m)) > most {
			victim, most = m, len(children(tree, m))
		}
	}
	if victim < 0 {
		t.Skip("no forwarder")
	}
	bound := calculus.DSCTHeightBoundMax(120, 3)
	orphans, err := tree.Prune(victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) != most {
		t.Fatalf("%d orphans, want %d", len(orphans), most)
	}
	parents, err := tree.Repair(net, orphans, 8, bound)
	if err != nil {
		t.Fatal(err)
	}
	if len(parents) != len(orphans) {
		t.Fatalf("%d parents for %d orphans", len(parents), len(orphans))
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("repaired tree invalid: %v", err)
	}
	if isMember(tree, victim) {
		t.Fatal("victim still a member")
	}
	for i, o := range orphans {
		if tree.Parent(o) != parents[i] {
			t.Fatalf("orphan %d under %d, Repair said %d", o, tree.Parent(o), parents[i])
		}
	}
}

// Churning a tree through many prune/repair/graft rounds must keep it a
// valid spanning tree of the surviving member set, inside the Lemma 2
// height bound whenever the constraints were satisfiable.
func TestChurnRoundsPreserveInvariants(t *testing.T) {
	net := network(200, 25)
	tree := mustDSCT(t, net, allMembers(150), 0, Config{Seed: 5})
	bound := calculus.DSCTHeightBoundMax(200, 3)
	next := 150
	for round := 0; round < 40; round++ {
		// Leave: the (round mod size)-th non-source member.
		victim := -1
		for i, m := range tree.Members {
			if m != tree.Source && i%7 == round%7 {
				victim = m
				break
			}
		}
		if victim >= 0 {
			orphans, err := tree.Prune(victim)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if _, err := tree.Repair(net, orphans, 8, bound); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		// Join: a brand-new host.
		p, err := tree.GraftPoint(net, next, 0, 8, bound)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := tree.Graft(next, p); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		next++
		if err := tree.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if tree.Height() > bound {
		t.Fatalf("height %d exceeds the Lemma 2 bound %d after churn", tree.Height(), bound)
	}
}

func TestPruneRejectsSourceAndNonMembers(t *testing.T) {
	net := network(20, 26)
	tree := mustDSCT(t, net, allMembers(15), 3, Config{Seed: 6})
	if _, err := tree.Prune(3); err == nil {
		t.Fatal("pruning the source must fail")
	}
	if _, err := tree.Prune(17); err == nil {
		t.Fatal("pruning a non-member must fail")
	}
}

func TestGraftPointPrefersNearAndRespectsBounds(t *testing.T) {
	net := network(50, 27)
	tree := mustFlat(t, net, allMembers(10), 0, 2)
	// With a fanout cap of 2 every interior node is full; only leaves (and
	// sub-full nodes) qualify, so the chosen parent must have spare fanout.
	p, err := tree.GraftPoint(net, 20, 0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(children(tree, p)) >= 2 {
		t.Fatalf("graft point %d already has %d children", p, len(children(tree, p)))
	}
	// Determinism: same inputs, same answer.
	q, err := tree.GraftPoint(net, 20, 0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p != q {
		t.Fatalf("graft point not deterministic: %d vs %d", p, q)
	}
}

func TestSubtreeHeight(t *testing.T) {
	tr := mustTree(0, []int{0, 1, 2, 3})
	tr.setParent(1, 0)
	tr.setParent(2, 1)
	tr.setParent(3, 2)
	if h := tr.SubtreeHeight(0); h != 3 {
		t.Fatalf("SubtreeHeight(root) = %d, want 3", h)
	}
	if h := tr.SubtreeHeight(2); h != 1 {
		t.Fatalf("SubtreeHeight(2) = %d, want 1", h)
	}
	if h := tr.SubtreeHeight(3); h != 0 {
		t.Fatalf("SubtreeHeight(leaf) = %d, want 0", h)
	}
}

// TestDynamicsPropertyInvariants is the property test for the dynamic
// tree operations: after many random graft/prune/repair cycles (the
// control plane's exact call pattern) a DSCT tree must still satisfy the
// structural invariants — it spans exactly its member set acyclically
// (Validate), the height stays within the Lemma 2 bound for the host
// population, and no member's fanout exceeds the worse of the 3K−1
// cluster cap and the build-time maximum (a core that led clusters on
// several layers can start above the cap; grafts must then never widen
// it further, because GraftPoint only targets members below the cap).
// Constraint relaxation inside GraftPoint (fanout first, then height)
// only triggers when no conforming member exists; with this population
// there is always slack, so the caps must hold exactly.
func TestDynamicsPropertyInvariants(t *testing.T) {
	const (
		hosts  = 140
		k      = 3
		cap    = 3*k - 1
		cycles = 400
	)
	bound := calculus.DSCTHeightBoundMax(hosts, k)
	for _, seed := range []uint64{1, 2, 3} {
		net := network(hosts, seed)
		tree := mustDSCT(t, net, allMembers(100), 0, Config{Seed: seed})
		rng := xrand.New(seed ^ 0xbf58476d1ce4e5b9)
		member := make(map[int]bool, 100)
		for _, m := range tree.Members {
			member[m] = true
		}
		fanoutCap := cap
		if f := tree.MaxFanout(); f > fanoutCap {
			fanoutCap = f
		}
		check := func(step int) {
			t.Helper()
			if err := tree.Validate(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if f := tree.MaxFanout(); f > fanoutCap {
				t.Fatalf("seed %d step %d: fanout %d exceeds cap %d", seed, step, f, fanoutCap)
			}
			if h := tree.Height(); h > bound {
				t.Fatalf("seed %d step %d: height %d exceeds Lemma 2 bound %d", seed, step, h, bound)
			}
		}
		for step := 0; step < cycles; step++ {
			join := rng.Intn(2) == 0
			if len(tree.Members) <= 5 {
				join = true // keep the tree from draining away
			} else if len(tree.Members) >= hosts {
				join = false
			}
			if join {
				// Pick a random non-member to graft.
				h := rng.Intn(hosts)
				for member[h] {
					h = (h + 1) % hosts
				}
				p, err := tree.GraftPoint(net, h, 0, cap, bound)
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				if err := tree.Graft(h, p); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				member[h] = true
			} else {
				// Pick a random non-source member to prune, then repair.
				h := rng.Intn(hosts)
				for !member[h] || h == tree.Source {
					h = (h + 1) % hosts
				}
				orphans, err := tree.Prune(h)
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				member[h] = false
				if _, err := tree.Repair(net, orphans, cap, bound); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
			check(step)
		}
	}
}
