package core

import (
	"testing"

	"repro/internal/des"
	"repro/internal/traffic"
)

// churnEvents builds a deterministic mixed schedule over the partial
// groups of partialGroups(n): outsiders join, members leave, and some
// events are deliberate no-ops (double join, source leave).
func churnEvents(groups []GroupSpec, n int) []MembershipEvent {
	inGroup := make([]map[int]bool, len(groups))
	for g, spec := range groups {
		inGroup[g] = make(map[int]bool)
		for _, m := range spec.Members {
			inGroup[g][m] = true
		}
	}
	var evs []MembershipEvent
	at := 200 * des.Millisecond
	for g := range groups {
		// Two joins of hosts outside the group.
		joined := 0
		for h := 0; h < n && joined < 2; h++ {
			if !inGroup[g][h] {
				evs = append(evs, MembershipEvent{At: at, Group: g, Host: h, Join: true})
				at += 150 * des.Millisecond
				joined++
			}
		}
		// Two leaves of non-source members (one likely a forwarder).
		left := 0
		for _, m := range groups[g].Members {
			if m != groups[g].Source && left < 2 {
				evs = append(evs, MembershipEvent{At: at, Group: g, Host: m})
				at += 150 * des.Millisecond
				left++
			}
		}
		// No-ops: join of the source (already a member), leave of the source.
		evs = append(evs, MembershipEvent{At: at, Group: g, Host: groups[g].Source, Join: true})
		evs = append(evs, MembershipEvent{At: at, Group: g, Host: groups[g].Source})
	}
	return evs
}

func churnConfig(scheme Scheme, seed uint64) Config {
	groups := partialGroups(48)
	return Config{NumHosts: 48, Mix: traffic.MixAudio, Load: 0.8, Scheme: scheme,
		Duration: 4 * des.Second, Seed: seed, Groups: groups,
		Events: churnEvents(groups, 48), WindowSec: 0.5}
}

// The churn schedule applies joins and leaves and rejects its deliberate
// no-ops under every scheme, the same way run after run.
func TestChurnSessionDeterministic(t *testing.T) {
	for _, scheme := range []Scheme{SchemeSigmaRho, SchemeSRL, SchemeAdaptive} {
		cfg := churnConfig(scheme, 11)
		a := Run(cfg)
		if err := SameRun(a, Run(cfg), 0); err != nil {
			t.Fatalf("%v churn session diverged: %v", scheme, err)
		}
		if a.Joins == 0 || a.Leaves == 0 {
			t.Fatalf("%v: no churn applied (joins=%d leaves=%d)", scheme, a.Joins, a.Leaves)
		}
		if a.RejectedEvents == 0 {
			t.Fatalf("%v: the deliberate no-op events were not rejected", scheme)
		}
		if a.Delivered == 0 {
			t.Fatalf("%v: churn session delivered nothing", scheme)
		}
	}
}

// The membership invariant: a packet is measured and forwarded only while
// its receiving host is a member of the packet's group. Arrivals outside
// the membership interval (in flight across a leave) are dropped and
// counted as lost, and joined members really start receiving.
func TestChurnMembershipInvariant(t *testing.T) {
	cfg := churnConfig(SchemeSRL, 3)
	s := NewSession(cfg)
	type arrival struct{ member, counted bool }
	var arrivals []arrival
	joinedDeliveries := make(map[int]int) // per joined host
	var joiners []int
	for _, ev := range cfg.Events {
		if ev.Join && !s.sub.groups[ev.Group].member.has(ev.Host) {
			joiners = append(joiners, ev.Host)
		}
	}
	for id := 0; id < cfg.NumHosts; id++ {
		id := id
		sh := s.sh[s.owner[id]]
		sh.fabric.SetReceiver(id, func(p traffic.Packet) {
			member := s.sub.groups[p.Flow].member.has(id)
			before := sh.deliver
			sh.receive(&s.hosts[id], p)
			counted := sh.deliver == before+1
			arrivals = append(arrivals, arrival{member: member, counted: counted})
			if counted {
				joinedDeliveries[id]++
			}
		})
	}
	res := s.Run()
	droppedArrivals := uint64(0)
	for i, a := range arrivals {
		if a.member != a.counted {
			t.Fatalf("arrival %d: member=%v counted=%v — packet measured outside membership interval",
				i, a.member, a.counted)
		}
		if !a.member {
			droppedArrivals++
		}
	}
	if res.Leaves > 0 && droppedArrivals == 0 {
		t.Log("no in-flight packet crossed a leave (acceptable, but churn may be too gentle)")
	}
	if droppedArrivals > res.Lost {
		t.Fatalf("dropped arrivals %d exceed accounted loss %d", droppedArrivals, res.Lost)
	}
	got := 0
	for _, h := range joiners {
		got += joinedDeliveries[h]
	}
	if len(joiners) > 0 && got == 0 {
		t.Fatal("no joined host ever received a packet")
	}
	if res.Joins == 0 {
		t.Fatal("no joins applied")
	}
}

// After every event fires, the live trees must still be valid spanning
// trees of the live member sets.
func TestChurnTreesStayValid(t *testing.T) {
	cfg := churnConfig(SchemeSRL, 7)
	s := NewSession(cfg)
	res := s.Run()
	if res.Joins == 0 || res.Leaves == 0 {
		t.Fatalf("churn not applied: %d joins, %d leaves", res.Joins, res.Leaves)
	}
	if res.Regrafts == 0 {
		t.Fatal("no orphan subtree was re-parented — the leaves never hit a forwarder")
	}
	for g, tr := range sessionTrees(s) {
		if err := tr.Validate(); err != nil {
			t.Fatalf("group %d tree invalid after churn: %v", g, err)
		}
		for _, m := range tr.Members {
			if !s.sub.groups[g].member.has(m) {
				t.Fatalf("group %d tree spans non-member %d", g, m)
			}
		}
	}
}

// TestGraftOutsideIndexedNetworkIsAnError: a churn join builds the live
// RTT index of its group's tree, which keys members by their router, so
// grafting host N into an N-host session's tree is an error — as it was
// into the tree before the join built the index — not an index out of
// range inside the index.
func TestGraftOutsideIndexedNetworkIsAnError(t *testing.T) {
	cfg := churnConfig(SchemeSRL, 7)
	s := NewSession(cfg)
	s.Run()
	_, indexed := TreesIndexed(s)
	for g, tr := range sessionTrees(s) {
		if !indexed[g] {
			continue
		}
		if err := tr.Graft(cfg.NumHosts, tr.Source); err == nil {
			t.Errorf("group %d: grafting host %d into a %d-host session's indexed tree succeeded", g, cfg.NumHosts, cfg.NumHosts)
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("group %d: the refused graft left the tree invalid: %v", g, err)
		}
		return
	}
	t.Fatal("no churn join built a group's RTT index")
}

func TestChurnWindowedSeries(t *testing.T) {
	cfg := churnConfig(SchemeSRL, 5)
	res := Run(cfg)
	if res.WindowSec != 0.5 {
		t.Fatalf("WindowSec = %v", res.WindowSec)
	}
	if len(res.WindowMax) == 0 {
		t.Fatal("no windowed max-delay series recorded")
	}
	peak := 0.0
	for _, w := range res.WindowMax {
		if w > peak {
			peak = w
		}
	}
	if peak != res.WDB {
		t.Fatalf("windowed peak %v != WDB %v", peak, res.WDB)
	}
}

// Static sessions must not pay for the control plane: no events means no
// churn state, zero disruption counters, and (pinned elsewhere by the
// golden tests) bit-identical results to the pre-control-plane engine.
func TestStaticSessionHasNoChurnState(t *testing.T) {
	res := Run(Config{NumHosts: 40, Mix: traffic.MixAudio, Load: 0.8,
		Scheme: SchemeSRL, Duration: 2 * des.Second, Seed: 1})
	if res.Joins != 0 || res.Leaves != 0 || res.Lost != 0 || res.Regrafts != 0 {
		t.Fatalf("static session reports churn: %+v", res)
	}
	if res.WindowMax != nil {
		t.Fatal("static session recorded windows without WindowSec")
	}
}

func TestChurnRequiresRegulatedScheme(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for capacity-aware churn")
		}
	}()
	NewSession(Config{NumHosts: 20, Mix: traffic.MixAudio, Load: 0.5,
		Scheme: SchemeCapacityAware, Seed: 1,
		Events: []MembershipEvent{{At: des.Second, Group: 0, Host: 3}}})
}

// Events beyond the traffic duration are dropped, and out-of-range
// event targets are rejected, not crashed on.
func TestChurnEventEdgeCases(t *testing.T) {
	groups := partialGroups(30)
	res := Run(Config{NumHosts: 30, Mix: traffic.MixAudio, Load: 0.7,
		Scheme: SchemeSRL, Duration: des.Second, Seed: 2, Groups: groups,
		Events: []MembershipEvent{
			{At: 5 * des.Second, Group: 0, Host: 1, Join: true}, // past duration
			{At: des.Millisecond, Group: 99, Host: 1, Join: true},
			{At: des.Millisecond, Group: 0, Host: -4, Join: true},
		}})
	if res.Joins != 0 || res.Leaves != 0 {
		t.Fatalf("edge events were applied: %+v", res)
	}
	if res.RejectedEvents != 2 {
		t.Fatalf("rejected = %d, want 2 (the out-of-range pair)", res.RejectedEvents)
	}
}
