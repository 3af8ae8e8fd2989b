package overlay

// Tests for the correlated-failure tree operations: the batch prune
// (PruneAll), the partition primitives (Detach + Graft at the heal), and
// the pinned repair order that keeps sequential and sharded fault
// handling bit-identical.

import (
	"sort"
	"testing"

	"repro/internal/calculus"
	"repro/internal/xrand"
)

// sameShape compares two trees edge for edge over their member sets.
func sameShape(t *testing.T, a, b *Tree) {
	t.Helper()
	if len(a.Members) != len(b.Members) {
		t.Fatalf("member counts differ: %d vs %d", len(a.Members), len(b.Members))
	}
	am := append([]int(nil), a.Members...)
	bm := append([]int(nil), b.Members...)
	sort.Ints(am)
	sort.Ints(bm)
	for i := range am {
		if am[i] != bm[i] {
			t.Fatalf("member sets differ at %d: %d vs %d", i, am[i], bm[i])
		}
		pa, oka := a.ParentOf(am[i])
		pb, okb := b.ParentOf(bm[i])
		if oka != okb || pa != pb {
			t.Fatalf("parent of %d differs: (%d,%v) vs (%d,%v)", am[i], pa, oka, pb, okb)
		}
	}
}

// TestBatchRepairOrderPinned pins the mass-failure repair order the fault
// plane depends on: PruneAll returns the newly detached subtree roots
// sorted ascending by host id regardless of the victims' input order, so
// sequential and sharded runs — which both repair in exactly that order —
// re-attach every orphan identically. A change to this contract is a
// determinism break, not a refactor. It checks a property (order
// independence), not a value, so it is not a row of harness.TestPins.
func TestBatchRepairOrderPinned(t *testing.T) {
	net := network(160, 31)
	fwd, rev := mustDSCT(t, net, allMembers(120), 0, Config{Seed: 31}),
		mustDSCT(t, net, allMembers(120), 0, Config{Seed: 31})

	// Victims: a handful of forwarders (so the prune actually orphans
	// subtrees) plus a leaf, ascending.
	var victims []int
	for _, m := range fwd.Members {
		if m != fwd.Source && len(children(fwd, m)) > 0 {
			victims = append(victims, m)
			if len(victims) == 5 {
				break
			}
		}
	}
	if len(victims) < 2 {
		t.Skip("tree too flat for a meaningful batch")
	}
	sort.Ints(victims)

	oa, err := fwd.PruneAll(append([]int(nil), victims...))
	if err != nil {
		t.Fatal(err)
	}
	reversed := make([]int, len(victims))
	for i, v := range victims {
		reversed[len(victims)-1-i] = v
	}
	ob, err := rev.PruneAll(reversed)
	if err != nil {
		t.Fatal(err)
	}

	if !sort.IntsAreSorted(oa) {
		t.Fatalf("PruneAll orphans not ascending: %v", oa)
	}
	if len(oa) != len(ob) {
		t.Fatalf("orphan counts differ by input order: %v vs %v", oa, ob)
	}
	for i := range oa {
		if oa[i] != ob[i] {
			t.Fatalf("orphan order depends on victim input order: %v vs %v", oa, ob)
		}
	}
	sameShape(t, fwd, rev)

	// Repairing both in the pinned order must pick identical parents and
	// leave identical trees.
	bound := calculus.DSCTHeightBoundMax(160, 3)
	pa, err := fwd.Repair(net, oa, 8, bound)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := rev.Repair(net, ob, 8, bound)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("repair parents differ at %d: %d vs %d", i, pa[i], pb[i])
		}
	}
	sameShape(t, fwd, rev)
	if err := fwd.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPruneAllRejectsBadBatches(t *testing.T) {
	net := network(30, 32)
	tree := mustDSCT(t, net, allMembers(20), 0, Config{Seed: 32})
	if _, err := tree.PruneAll([]int{0, 5}); err == nil {
		t.Fatal("batch containing the source must fail")
	}
	if _, err := tree.PruneAll([]int{5, 25}); err == nil {
		t.Fatal("batch containing a non-member must fail")
	}
	if _, err := tree.PruneAll([]int{5, 5}); err == nil {
		t.Fatal("batch with a duplicate victim must fail")
	}
	if orphans, err := tree.PruneAll(nil); err != nil || orphans != nil {
		t.Fatalf("empty batch: %v, %v", orphans, err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("rejected batches must leave the tree intact: %v", err)
	}
}

func TestDetachAndHealKeepSubtreeIntact(t *testing.T) {
	net := network(100, 33)
	tree := mustDSCT(t, net, allMembers(80), 0, Config{Seed: 33})
	victim, most := -1, 0
	for _, m := range tree.Members {
		if m != tree.Source && len(children(tree, m)) > most {
			victim, most = m, len(children(tree, m))
		}
	}
	if victim < 0 {
		t.Skip("no forwarder")
	}
	kids := append([]int(nil), children(tree, victim)...)
	if err := tree.Detach(victim); err != nil {
		t.Fatal(err)
	}
	if tree.Attached(victim) {
		t.Fatal("detached root still attached")
	}
	if !isMember(tree, victim) {
		t.Fatal("detach must keep membership")
	}
	for _, c := range kids {
		if p, ok := tree.ParentOf(c); !ok || p != victim {
			t.Fatalf("detach broke the subtree: child %d parent (%d,%v)", c, p, ok)
		}
		if tree.Attached(c) {
			t.Fatalf("descendant %d of a detached root reads attached", c)
		}
	}
	if err := tree.Detach(victim); err == nil {
		t.Fatal("double detach must fail")
	}
	if err := tree.Detach(tree.Source); err == nil {
		t.Fatal("detaching the source must fail")
	}
	// Heal: graft the root back; the subtree comes with it.
	bound := calculus.DSCTHeightBoundMax(100, 3)
	p, err := tree.GraftPoint(net, victim, tree.SubtreeHeight(victim), 8, bound)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Graft(victim, p); err != nil {
		t.Fatal(err)
	}
	for _, c := range kids {
		if !tree.Attached(c) {
			t.Fatalf("descendant %d still detached after the heal", c)
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultCyclesPreserveInvariants is the correlated-failure property
// test: many random rounds of batch prune+repair (outage / mass leave),
// detach-then-heal (partition), and joins — the fault plane's exact call
// pattern — must keep the tree a valid spanning tree of the surviving
// member set whenever no partition is open, with the fanout cap and
// Lemma 2 height bound holding as in the single-victim property test.
func TestFaultCyclesPreserveInvariants(t *testing.T) {
	const (
		hosts  = 140
		k      = 3
		cap    = 3*k - 1
		cycles = 320
	)
	bound := calculus.DSCTHeightBoundMax(hosts, k)
	for _, seed := range []uint64{1, 2, 3} {
		net := network(hosts, seed)
		tree := mustDSCT(t, net, allMembers(100), 0, Config{Seed: seed})
		rng := xrand.New(seed ^ 0x9e3779b97f4a7c15)
		member := make(map[int]bool, 100)
		for _, m := range tree.Members {
			member[m] = true
		}
		fanoutCap := cap
		if f := tree.MaxFanout(); f > fanoutCap {
			fanoutCap = f
		}
		var detached []int // open-partition roots, ascending
		inDetached := func(h int) bool {
			i := sort.SearchInts(detached, h)
			return i < len(detached) && detached[i] == h
		}
		check := func(step int) {
			t.Helper()
			if len(detached) > 0 {
				return // Validate requires every member attached; checked at heal
			}
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
		repairAll := func(step int, roots []int) {
			t.Helper()
			if _, err := tree.RepairWith(roots, func(o, sh int) (int, error) {
				return tree.GraftPoint(net, o, sh, cap, bound)
			}); err != nil {
				t.Fatalf("seed %d step %d: repair: %v", seed, step, err)
			}
		}
		pickMembers := func(n int, pred func(int) bool) []int {
			var out []int
			seen := map[int]bool{}
			for tries := 0; tries < 10*n && len(out) < n; tries++ {
				h := rng.Intn(hosts)
				if member[h] && h != tree.Source && !seen[h] && pred(h) {
					out = append(out, h)
					seen[h] = true
				}
			}
			sort.Ints(out)
			return out
		}
		for step := 0; step < cycles; step++ {
			op := rng.Intn(4)
			if tree.Size() < 30 {
				op = 3 // refill before shrinking further
			}
			switch op {
			case 0: // correlated batch leave: PruneAll + pinned-order repair
				victims := pickMembers(1+rng.Intn(5), func(int) bool { return true })
				if len(victims) == 0 {
					continue
				}
				orphans, err := tree.PruneAll(victims)
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				if !sort.IntsAreSorted(orphans) {
					t.Fatalf("seed %d step %d: orphans not ascending: %v", seed, step, orphans)
				}
				for _, v := range victims {
					member[v] = false
				}
				// Victims may have been parked partition roots; mirror the
				// fault plane and drop them from the deferred set.
				n := 0
				for _, r := range detached {
					victim := false
					for _, v := range victims {
						if v == r {
							victim = true
							break
						}
					}
					if !victim {
						detached[n] = r
						n++
					}
				}
				detached = detached[:n]
				repairAll(step, orphans)
			case 1: // partition: detach a batch of attached members
				if len(detached) > 0 {
					continue // one cut at a time, as in the fault plane
				}
				roots := pickMembers(1+rng.Intn(5), tree.Attached)
				for _, r := range roots {
					// An earlier detach may have covered r's subtree.
					if !tree.Attached(r) {
						continue
					}
					if err := tree.Detach(r); err != nil {
						t.Fatalf("seed %d step %d: %v", seed, step, err)
					}
					detached = append(detached, r)
				}
				sort.Ints(detached)
			case 2: // heal: re-attach every parked root in ascending order
				if len(detached) == 0 {
					continue
				}
				roots := detached
				detached = nil
				repairAll(step, roots)
			case 3: // join a non-member (skip hosts inside detached subtrees)
				h := rng.Intn(hosts)
				for member[h] {
					h = (h + 1) % hosts
				}
				p, err := tree.GraftPoint(net, h, 0, cap, bound)
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				if inDetached(p) || !tree.Attached(p) {
					t.Fatalf("seed %d step %d: graft point %d not attached", seed, step, p)
				}
				if err := tree.Graft(h, p); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				member[h] = true
			}
			check(step)
		}
		// Close any open cut and verify the final tree.
		if len(detached) > 0 {
			roots := detached
			detached = nil
			repairAll(cycles, roots)
		}
		check(cycles)
	}
}
