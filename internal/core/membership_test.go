package core

import (
	"slices"
	"testing"

	"repro/internal/des"
	"repro/internal/topo"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// partialGroups builds three overlapping partial member sets over n hosts:
// evens, a contiguous middle block, and every third host — with sources
// inside their sets.
func partialGroups(n int) []GroupSpec {
	var evens, block, thirds []int
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			evens = append(evens, i)
		}
		if i >= n/4 && i < 3*n/4 {
			block = append(block, i)
		}
		if i%3 == 0 {
			thirds = append(thirds, i)
		}
	}
	return []GroupSpec{
		{Source: evens[0], Members: evens},
		{Source: block[1], Members: block},
		{Source: thirds[len(thirds)-1], Members: thirds},
	}
}

// Non-member hosts must never receive a group's packets: the delivery
// trees span exactly the member sets, so every fabric delivery lands on a
// subscriber.
func TestSessionNonMembersNeverReceive(t *testing.T) {
	groups := partialGroups(60)
	s := NewSession(Config{NumHosts: 60, Mix: traffic.MixAudio, Load: 0.8,
		Scheme: SchemeSRL, Duration: 2 * des.Second, Seed: 3, Groups: groups})
	member := make([]map[int]bool, len(groups))
	for g, spec := range s.Groups() {
		member[g] = make(map[int]bool, len(spec.Members))
		for _, m := range spec.Members {
			member[g][m] = true
		}
	}
	leaks := 0
	for id := 0; id < 60; id++ {
		id := id
		sh := s.sh[s.owner[id]]
		sh.fabric.SetReceiver(id, func(p traffic.Packet) {
			if !member[p.Flow][id] {
				leaks++
			}
			sh.receive(&s.hosts[id], p)
		})
	}
	res := s.Run()
	if leaks > 0 {
		t.Fatalf("%d packets delivered to non-members", leaks)
	}
	if res.Delivered == 0 {
		t.Fatal("no deliveries at all")
	}
	// Every group with more than one member must actually deliver.
	for g := range groups {
		if len(groups[g].Members) > 1 && res.PerGroupWDB[g] <= 0 {
			t.Fatalf("group %d (%d members) has WDB %v", g, len(groups[g].Members), res.PerGroupWDB[g])
		}
	}
}

// Explicit full-membership GroupSpecs must reproduce the implicit paper
// model bit for bit (regulated schemes build the same per-group trees).
func TestSessionExplicitFullMembershipMatchesImplicit(t *testing.T) {
	const n = 40
	everyone := make([]int, n)
	for i := range everyone {
		everyone[i] = i
	}
	explicit := []GroupSpec{
		{Source: 0, Members: everyone},
		{Source: 1, Members: everyone},
		{Source: 2, Members: everyone},
	}
	base := Config{NumHosts: n, Mix: traffic.MixAudio, Load: 0.85, Scheme: SchemeSRL,
		Duration: 3 * des.Second, Seed: 5}
	withGroups := base
	withGroups.Groups = explicit
	if err := SameRun(Run(base), Run(withGroups), 0); err != nil {
		t.Fatalf("explicit full membership diverged from implicit: %v", err)
	}
}

// Empty member sets in an explicit GroupSpec mean "everyone".
func TestSessionEmptyMemberSetMeansEveryone(t *testing.T) {
	base := Config{NumHosts: 30, Mix: traffic.MixAudio, Load: 0.7, Scheme: SchemeSigmaRho,
		Duration: 2 * des.Second, Seed: 2}
	withGroups := base
	withGroups.Groups = []GroupSpec{{Source: 0}, {Source: 1}, {Source: 2}}
	if err := SameRun(Run(base), Run(withGroups), 0); err != nil {
		t.Fatalf("empty member sets diverged from implicit: %v", err)
	}
}

// A group that lists a member twice is refused with the tree builder's
// error, which names the member, under either cluster strategy — where
// the build used to fail on an internal "assigned two parents" check.
func TestSessionDuplicateMemberIsNamed(t *testing.T) {
	for _, strategy := range []string{"dsct", "nice"} {
		cfg := Config{NumHosts: 30, Mix: traffic.MixAudio, Load: 0.7, Scheme: SchemeSigmaRho,
			Duration: des.Second, Seed: 2, Strategy: strategy,
			Groups: []GroupSpec{{Source: 0, Members: append(rangeMembers(0, 9), 3)}}}
		func() {
			defer func() {
				if err, _ := recover().(error); err == nil || err.Error() != "overlay: duplicate member 3" {
					t.Errorf("%s: NewSession failed with %v, want the error %q", strategy, err, "overlay: duplicate member 3")
				}
			}()
			NewSession(cfg)
		}()
	}
}

func TestSessionManyGroupsImplicit(t *testing.T) {
	res := Run(Config{NumHosts: 30, Mix: traffic.MixHetero, Load: 0.6,
		Scheme: SchemeSRL, Duration: 2 * des.Second, Seed: 4, NumGroups: 7})
	if len(res.PerGroupWDB) != 7 || len(res.TreeLayers) != 7 {
		t.Fatalf("NumGroups not honoured: %d groups reported", len(res.PerGroupWDB))
	}
	if res.Delivered == 0 {
		t.Fatal("no deliveries")
	}
}

// uplinkConfig is a session on a Waxman underlay behind two uplink classes.
func uplinkConfig() Config {
	return Config{NumHosts: 60, Mix: traffic.MixAudio, Load: 0.7, Scheme: SchemeSRL,
		Duration: 2 * des.Second, Seed: 6, Topology: topo.Waxman{N: 24},
		UplinkClasses: []topo.UplinkClass{{Mult: 0.5, Weight: 1}, {Mult: 4, Weight: 1}}}
}

// Its identity under every transformation is the identity matrix's uplinks row.
func TestSessionAlternateTopologyAndUplinks(t *testing.T) {
	cfg := uplinkConfig()
	a := Run(cfg)
	if a.Delivered == 0 {
		t.Fatal("no deliveries on waxman underlay")
	}
	// Heterogeneous capacity must actually change the outcome vs uniform.
	uniform := cfg
	uniform.UplinkClasses = nil
	u := Run(uniform)
	if u.WDB == a.WDB {
		t.Fatal("uplink classes had no effect on WDB")
	}
}

// A class multiplier that drops a host's capacity to or below a flow's ρ
// must fail loudly at build time — NewSRL cannot regulate it, and even
// non-forwarding hosts would fold a negative W into their stagger
// offsets.
func TestSessionRejectsUndersizedUplinkClass(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for uplink class below the flow envelope rate")
		}
	}()
	NewSession(Config{NumHosts: 20, Mix: traffic.MixVideo, Load: 0.9,
		Scheme: SchemeSRL, Seed: 1,
		UplinkClasses: []topo.UplinkClass{{Mult: 0.2, Weight: 1}}})
}

func TestSessionValidatesGroupSpecs(t *testing.T) {
	cases := []struct {
		name   string
		groups []GroupSpec
	}{
		{"source outside members", []GroupSpec{{Source: 5, Members: []int{1, 2, 3}}}},
		{"member out of range", []GroupSpec{{Source: 1, Members: []int{1, 99}}}},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			NewSession(Config{NumHosts: 10, Mix: traffic.MixAudio, Load: 0.5,
				Scheme: SchemeSRL, Seed: 1, Groups: tc.groups})
		}()
	}
}

func TestSeedOpt(t *testing.T) {
	var unset SeedOpt
	if unset.IsSet() {
		t.Fatal("zero SeedOpt must be unset")
	}
	if unset.Or(7) != 7 {
		t.Fatal("unset SeedOpt must fall back")
	}
	zero := UseSeed(0)
	if !zero.IsSet() || zero.Or(7) != 0 {
		t.Fatal("an explicit seed 0 must be honoured, not treated as unset")
	}
	if UseSeed(42).Or(7) != 42 {
		t.Fatal("set SeedOpt must return its value")
	}
}

// An explicitly chosen traffic seed of 0 must differ from the inherited
// structural seed — the ambiguity the old uint64 sentinel had.
func TestTrafficSeedZeroIsDistinctFromUnset(t *testing.T) {
	base := OneHop(Config{Mix: traffic.MixVideo, Load: 0.8, Scheme: SchemeSigmaRho,
		Duration: 2 * des.Second, Seed: 9, Workload: WorkloadVBR, EnvelopeHorizonSec: 5})
	inherit := Run(base)
	explicit := base
	explicit.TrafficSeed = UseSeed(0)
	zero := Run(explicit)
	if inherit.WDB == zero.WDB && inherit.Delivered == zero.Delivered {
		t.Fatal("TrafficSeed=UseSeed(0) produced the seed-9 stream: sentinel ambiguity is back")
	}
	same := base
	same.TrafficSeed = UseSeed(9)
	if err := SameRun(inherit, Run(same), 0); err != nil {
		t.Fatalf("TrafficSeed=UseSeed(Seed) must match the unset default: %v", err)
	}
}

func TestDeriveSeedProperties(t *testing.T) {
	if xrand.DeriveSeed(1, 0) != xrand.DeriveSeed(1, 0) {
		t.Fatal("DeriveSeed not deterministic")
	}
	seen := map[uint64]bool{}
	for base := uint64(0); base < 32; base++ {
		for g := 0; g < 32; g++ {
			s := xrand.DeriveSeed(base, g)
			if s == 0 {
				t.Fatal("DeriveSeed returned 0")
			}
			if seen[s] {
				t.Fatalf("DeriveSeed collision at base %d index %d", base, g)
			}
			seen[s] = true
		}
	}
}

// Member sets are bits, 64 to a word, and a group's window sits between
// its neighbours' in one slab. Hosts 63/64 and 127/128 straddle the word
// boundaries of a 130-host window and 129 is the last bit before its
// padding: joining and leaving them in the middle group must flip exactly
// those bits, leave both neighbouring groups' windows (all 130 bits set,
// the padding clear) untouched, and keep every arrival counted once, as a
// delivery or as a loss.
func TestMembershipWordBoundaries(t *testing.T) {
	const n = 130
	edge := []int{63, 64, 127, 128, 129}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	var mid []int
	for i := 0; i < n; i++ {
		if !slices.Contains(edge, i) {
			mid = append(mid, i)
		}
	}
	var events []MembershipEvent
	at := func(sec float64, join bool, hosts ...int) {
		for _, h := range hosts {
			events = append(events, MembershipEvent{At: des.Time(des.Seconds(sec)), Group: 1, Host: h, Join: join})
		}
	}
	at(0.5, true, edge...)
	at(1.0, false, 63, 127, 129)
	at(1.5, false, 64, 128)
	at(1.7, true, 129)
	s := NewSession(Config{NumHosts: n, Mix: traffic.MixAudio, Load: 0.8, Scheme: SchemeSRL,
		Duration: 2 * des.Second, Seed: 3, Events: events, Groups: []GroupSpec{
			{Source: 0, Members: all}, {Source: 0, Members: mid}, {Source: n - 1, Members: all}}})

	var delivered uint64
	drops := make([]uint64, 3)
	for id := 0; id < n; id++ {
		sh := s.sh[s.owner[id]]
		sh.fabric.SetReceiver(id, func(p traffic.Packet) {
			d, l := sh.delays.Count(), sh.lost[p.Flow]
			sh.receive(&s.hosts[id], p)
			switch {
			case sh.delays.Count() == d+1 && sh.lost[p.Flow] == l:
				delivered++
			case sh.delays.Count() == d && sh.lost[p.Flow] == l+1:
				drops[p.Flow]++
			default:
				t.Fatalf("host %d group %d: an arrival counted %d deliveries and %d losses",
					id, p.Flow, sh.delays.Count()-d, sh.lost[p.Flow]-l)
			}
		})
	}
	res := s.Run()
	if res.Joins != 6 || res.Leaves != 5 || res.RejectedEvents != 0 {
		t.Fatalf("joins %d, leaves %d, rejected %d; want 6, 5, 0", res.Joins, res.Leaves, res.RejectedEvents)
	}
	if delivered == 0 || delivered != res.Delivered {
		t.Fatalf("%d arrivals counted as deliveries, result says %d", delivered, res.Delivered)
	}
	for g, l := range drops {
		if l > res.PerGroupLost[g] {
			t.Fatalf("group %d: %d arrivals dropped, %d accounted lost", g, l, res.PerGroupLost[g])
		}
	}

	want := make([]bitset, 3)
	for g, hosts := range [][]int{all, append(mid, 129), all} {
		want[g].reset(n)
		for _, h := range hosts {
			want[g].set(h)
		}
	}
	for g, st := range s.sub.groups {
		if !slices.Equal(st.member, want[g]) {
			t.Errorf("group %d member words %x, want %x", g, st.member, want[g])
		}
	}
}
