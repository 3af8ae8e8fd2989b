package overlay

// Fuzz for the mass-orphan batch repair path: for arbitrary (seeded)
// trees and victim sets, PruneAll must either reject the batch cleanly or
// remove exactly the victims, hand back the newly detached subtree roots
// in ascending order independent of the victims' input order, and leave a
// tree that Repair restores to a valid spanning tree of the survivors.

import (
	"sort"
	"testing"

	"repro/internal/calculus"
	"repro/internal/xrand"
)

func FuzzBatchRepair(f *testing.F) {
	f.Add(uint64(1), uint8(60), uint64(7), uint8(5))
	f.Add(uint64(9), uint8(20), uint64(0), uint8(1))
	f.Add(uint64(42), uint8(110), uint64(3), uint8(12))
	f.Fuzz(func(t *testing.T, seed uint64, size uint8, victimSeed uint64, count uint8) {
		n := int(size)%120 + 4 // population 4..123
		net := network(n, seed)
		fwd, err := BuildDSCT(net, allMembers(n), 0, Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rev, err := BuildDSCT(net, allMembers(n), 0, Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}

		// Derive a victim set (non-source, no duplicates) from the fuzzed
		// sub-seed; leave at least one survivor besides the source.
		vrng := xrand.New(victimSeed ^ 0x6a09e667f3bcc909)
		want := int(count)%(n-2) + 1
		seen := map[int]bool{}
		var victims []int
		for tries := 0; tries < 4*want && len(victims) < want; tries++ {
			h := 1 + vrng.Intn(n-1)
			if !seen[h] {
				seen[h] = true
				victims = append(victims, h)
			}
		}
		if len(victims) == 0 {
			return
		}
		sort.Ints(victims)
		reversed := make([]int, len(victims))
		for i, v := range victims {
			reversed[len(victims)-1-i] = v
		}

		oa, err := fwd.PruneAll(victims)
		if err != nil {
			t.Fatalf("PruneAll over valid victims: %v", err)
		}
		ob, err := rev.PruneAll(reversed)
		if err != nil {
			t.Fatalf("PruneAll reversed: %v", err)
		}
		if !sort.IntsAreSorted(oa) {
			t.Fatalf("orphans not ascending: %v", oa)
		}
		if len(oa) != len(ob) {
			t.Fatalf("orphan sets differ by input order: %v vs %v", oa, ob)
		}
		for i := range oa {
			if oa[i] != ob[i] {
				t.Fatalf("orphan order depends on input order: %v vs %v", oa, ob)
			}
		}
		for _, v := range victims {
			if isMember(fwd, v) {
				t.Fatalf("victim %d still a member", v)
			}
		}
		if len(fwd.Members) != n-len(victims) {
			t.Fatalf("size %d after removing %d of %d", len(fwd.Members), len(victims), n)
		}

		// The pinned-order repair must restore a valid tree on both copies
		// with identical parent choices.
		bound := calculus.DSCTHeightBoundMax(n, 3)
		pa, err := fwd.Repair(net, oa, 8, bound)
		if err != nil {
			t.Fatalf("repair: %v", err)
		}
		pb, err := rev.Repair(net, ob, 8, bound)
		if err != nil {
			t.Fatalf("repair reversed: %v", err)
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("repair parents differ at %d: %d vs %d", i, pa[i], pb[i])
			}
		}
		if err := fwd.Validate(); err != nil {
			t.Fatalf("repaired tree invalid: %v", err)
		}
	})
}
