package overlay

// Fuzz for the graft-point selector: for arbitrary (seeded) trees, member
// churn prefixes, graft targets, and constraint bounds, GraftPoint must
// either return an attached member that accepts the graft or an error —
// never a parent that corrupts the tree. Every strategy's selector must
// pick what the per-candidate oracle (oracle_test.go) picks on the same
// tree. The check after every accepted graft is Tree.Validate plus the
// constraint-respecting property: when a member satisfying both bounds
// existed, the chosen parent satisfies them too (relaxation is only legal
// when nothing conforms).

import (
	"testing"
)

func FuzzGraftPoint(f *testing.F) {
	f.Add(uint64(1), uint8(30), uint8(35), uint8(6), uint8(6), uint8(3))
	f.Add(uint64(7), uint8(5), uint8(9), uint8(2), uint8(0), uint8(1))
	f.Add(uint64(42), uint8(60), uint8(70), uint8(0), uint8(8), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, size, joiner, maxFanout, maxHeight, subHeight uint8) {
		n := int(size)%120 + 2 // population 2..121
		net := network(n+16, seed)
		members := allMembers(n)
		tree, err := BuildDSCT(net, members, 0, Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		h := int(joiner) % (n + 16)
		if isMember(tree, h) {
			// Grafting an attached member must error and leave the tree
			// untouched.
			if err := tree.Graft(h, tree.Source); err == nil {
				t.Fatal("graft of an attached member succeeded")
			}
			return
		}
		mf, mh, sh := int(maxFanout)%12, int(maxHeight)%12, int(subHeight)%4
		for _, name := range StrategyNames() {
			checkGraftPoint(t, name, net, tree, h, sh, Limits{MaxFanout: mf, MaxHeight: mh})
		}
		p, err := tree.GraftPoint(net, h, sh, mf, mh)
		if err != nil {
			t.Fatalf("graft point over a fully attached tree: %v", err)
		}
		if !isMember(tree, p) {
			t.Fatalf("graft point %d is not a member", p)
		}
		// If any member conformed to both bounds, the pick must conform
		// too (GraftPoint may only relax when nothing fits).
		conforming := false
		for _, m := range tree.Members {
			fanoutOK := mf <= 0 || len(children(tree, m)) < mf
			heightOK := mh <= 0 || tree.Depth(m)+1+sh <= mh
			if fanoutOK && heightOK {
				conforming = true
				break
			}
		}
		if conforming {
			if mf > 0 && len(children(tree, p)) >= mf {
				t.Fatalf("pick %d violates fanout %d with conforming members available", p, mf)
			}
		}
		if err := tree.Graft(h, p); err != nil {
			t.Fatalf("graft at the chosen point: %v", err)
		}
		if err := tree.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}
