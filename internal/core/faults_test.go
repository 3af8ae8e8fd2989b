package core

import (
	"slices"
	"testing"

	"repro/internal/des"
	"repro/internal/traffic"
)

// faultBaseConfig is shardBaseConfig extended with one fault
// event of every kind: a restored domain outage, a healed partition, a
// mass leave, and an epoch-style mass join — plus churn events that race
// the faults (a join of a down host must be rejected).
func faultBaseConfig(seed uint64) Config {
	cfg := shardBaseConfig(seed)
	side := make([]bool, 24)
	for r := 0; r < 24; r += 2 {
		side[r] = true
	}
	cfg.WindowSec = 0.5
	cfg.Faults = []FaultEvent{
		{At: des.Seconds(0.5), Kind: FaultOutage, ID: 0, Group: -1, Hosts: rangeMembers(30, 36)},
		{At: des.Seconds(0.9), Kind: FaultMassLeave, Group: 2, Hosts: rangeMembers(50, 60)},
		{At: des.Seconds(1.0), Kind: FaultMassJoin, Group: 3, Hosts: []int{32, 205, 210, 215}},
		{At: des.Seconds(1.5), Kind: FaultRestore, ID: 0, Group: -1, Hosts: rangeMembers(30, 36)},
		{At: des.Seconds(1.8), Kind: FaultPartition, ID: 1, Group: -1, Side: side},
		{At: des.Seconds(2.3), Kind: FaultHeal, ID: 1, Group: -1},
	}
	cfg.Events = []MembershipEvent{
		{At: des.Seconds(0.7), Group: 2, Host: 31, Join: true},  // down: rejected
		{At: des.Seconds(0.8), Group: 3, Host: 210, Join: true}, // races the mass join
		{At: des.Seconds(2.0), Group: 4, Host: 150},             // leave during the cut
	}
	return cfg
}

// TestFaultLifecycleSequential checks the sequential fault plane end to
// end: every event produces an outcome, the outage victims stay out until
// the restore re-grafts their recorded memberships, loss is attributed,
// and recovery closes for every sentinel in a run that outlives the
// faults.
func TestFaultLifecycleSequential(t *testing.T) {
	cfg := faultBaseConfig(29)
	res := Run(cfg)
	if res.Delivered == 0 {
		t.Fatal("no deliveries — fault workload is broken")
	}
	if len(res.Faults) != len(cfg.Faults) {
		t.Fatalf("%d outcomes for %d fault events", len(res.Faults), len(cfg.Faults))
	}
	oc := res.Faults
	if oc[0].Kind != "outage" || oc[0].Hosts != 6 || oc[0].Group != -1 {
		t.Fatalf("outage outcome: %+v", oc[0])
	}
	if oc[1].Kind != "mass_leave" || oc[1].Hosts != 10 || oc[1].Group != 2 {
		t.Fatalf("mass_leave outcome: %+v", oc[1])
	}
	// Host 32 is down at the mass join; host 210 already churned in at 0.8s:
	// only 205 and 215 can join.
	if oc[2].Kind != "mass_join" || oc[2].Hosts != 2 {
		t.Fatalf("mass_join outcome: %+v", oc[2])
	}
	// The restore re-grafts the memberships recorded at outage time. Hosts
	// 30..35 sat in groups 0, 1 (full), 2 (10..120), and 5 (0..80): 4 each,
	// minus whatever the 0.9s mass leave already removed from group 2 —
	// but that leave hit 50..59, so all 24 memberships come back.
	if oc[3].Kind != "restore" || oc[3].Hosts != 24 {
		t.Fatalf("restore outcome: %+v", oc[3])
	}
	if oc[3].RecoverySec <= 0 || oc[3].Unrecovered != 0 {
		t.Fatalf("restore recovery not measured: %+v", oc[3])
	}
	if oc[4].Kind != "partition" || oc[4].Hosts == 0 {
		t.Fatalf("partition severed nothing: %+v", oc[4])
	}
	if oc[4].Lost == 0 {
		t.Fatalf("partition dropped no crossing traffic: %+v", oc[4])
	}
	if oc[5].Kind != "heal" || oc[5].Regrafts != oc[4].Hosts {
		t.Fatalf("heal must re-attach every severed root: %+v vs %+v", oc[5], oc[4])
	}
	if oc[5].RecoverySec <= 0 {
		t.Fatalf("heal recovery not measured: %+v", oc[5])
	}
	var sum uint64
	for _, o := range oc {
		sum += o.Lost
	}
	if res.FaultLost != sum {
		t.Fatalf("FaultLost %d != outcome sum %d", res.FaultLost, sum)
	}
	if res.CutLost == 0 || res.CutLost > res.FaultLost {
		t.Fatalf("CutLost %d out of range (FaultLost %d)", res.CutLost, res.FaultLost)
	}
	if res.RejectedEvents == 0 {
		t.Fatal("the down-host join was not rejected")
	}
}

// TestFaultValidationPanics pins the strict-validation contract: a
// malformed fault schedule is a configuration bug and must fail the
// session build loudly.
func TestFaultValidationPanics(t *testing.T) {
	mustPanic := func(label string, faults []FaultEvent) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: session built from an invalid fault schedule", label)
			}
		}()
		cfg := shardBaseConfig(7)
		cfg.Faults = faults
		NewSession(cfg)
	}
	side := make([]bool, 24)
	side[0] = true
	mustPanic("at zero", []FaultEvent{
		{At: 0, Kind: FaultOutage, ID: 0, Group: -1, Hosts: []int{1}}})
	mustPanic("empty hosts", []FaultEvent{
		{At: des.Second, Kind: FaultOutage, ID: 0, Group: -1}})
	mustPanic("unsorted hosts", []FaultEvent{
		{At: des.Second, Kind: FaultOutage, ID: 0, Group: -1, Hosts: []int{5, 3}}})
	mustPanic("host out of range", []FaultEvent{
		{At: des.Second, Kind: FaultOutage, ID: 0, Group: -1, Hosts: []int{9999}}})
	mustPanic("group on session-wide kind", []FaultEvent{
		{At: des.Second, Kind: FaultOutage, ID: 0, Group: 2, Hosts: []int{1}}})
	mustPanic("group on restore", []FaultEvent{
		{At: des.Second, Kind: FaultOutage, ID: 0, Group: -1, Hosts: []int{1}},
		{At: 2 * des.Second, Kind: FaultRestore, ID: 0, Group: 0, Hosts: []int{1}}})
	mustPanic("group on partition", []FaultEvent{
		{At: des.Second, Kind: FaultPartition, ID: 0, Group: 1, Side: side}})
	mustPanic("group on heal", []FaultEvent{
		{At: des.Second, Kind: FaultPartition, ID: 0, Group: -1, Side: side},
		{At: 2 * des.Second, Kind: FaultHeal, ID: 0, Group: 3}})
	mustPanic("overlapping outages", []FaultEvent{
		{At: des.Second, Kind: FaultOutage, ID: 0, Group: -1, Hosts: []int{1, 2}},
		{At: 2 * des.Second, Kind: FaultOutage, ID: 1, Group: -1, Hosts: []int{2, 3}}})
	mustPanic("restore of unknown outage", []FaultEvent{
		{At: des.Second, Kind: FaultRestore, ID: 9, Group: -1, Hosts: []int{1}}})
	mustPanic("restore host mismatch", []FaultEvent{
		{At: des.Second, Kind: FaultOutage, ID: 0, Group: -1, Hosts: []int{1, 2}},
		{At: 2 * des.Second, Kind: FaultRestore, ID: 0, Group: -1, Hosts: []int{1}}})
	mustPanic("short side bitmap", []FaultEvent{
		{At: des.Second, Kind: FaultPartition, ID: 0, Group: -1, Side: []bool{true, false}}})
	mustPanic("degenerate bipartition", []FaultEvent{
		{At: des.Second, Kind: FaultPartition, ID: 0, Group: -1, Side: make([]bool, 24)}})
	mustPanic("overlapping partitions", []FaultEvent{
		{At: des.Second, Kind: FaultPartition, ID: 0, Group: -1, Side: side},
		{At: 2 * des.Second, Kind: FaultPartition, ID: 1, Group: -1, Side: side}})
	mustPanic("heal without partition", []FaultEvent{
		{At: des.Second, Kind: FaultHeal, ID: 0, Group: -1}})
	mustPanic("mass group out of range", []FaultEvent{
		{At: des.Second, Kind: FaultMassLeave, Group: 99, Hosts: []int{1}}})
}

// TestFaultsRequireRegulatedScheme: capacity-aware trees cannot be
// repaired, so enabling faults under that scheme must refuse to build.
func TestFaultsRequireRegulatedScheme(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity-aware session accepted a fault schedule")
		}
	}()
	cfg := Config{NumHosts: 40, Mix: traffic.MixAudio, Load: 0.6,
		Scheme: SchemeCapacityAware, Duration: des.Second, Seed: 3,
		Faults: []FaultEvent{{At: des.Seconds(0.5), Kind: FaultOutage, ID: 0, Group: -1, Hosts: []int{1}}}}
	NewSession(cfg)
}

// TestFaultFreeConfigUnperturbed: an empty fault list must compile to the
// exact session a config that never heard of faults does.
func TestFaultFreeConfigUnperturbed(t *testing.T) {
	b := shardBaseConfig(37)
	b.Faults = []FaultEvent{}
	if err := SameRun(Run(shardBaseConfig(37)), Run(b), 0); err != nil {
		t.Fatalf("fault-free runs diverged: %v", err)
	}
}

// TestRunEndsInsideOpenPartition: a partition that never heals is a valid
// schedule — the heal may fall past the run's end. Finish measures each
// tree's layers over its attached part (it used to climb a cut member's
// missing parent edge as host 0's and die in the parent-cycle guard), at
// one shard and at four. (Checkpoints inside the open cut are the
// fault-open-partition rows of the identity matrix.)
func TestRunEndsInsideOpenPartition(t *testing.T) {
	for _, shards := range []int{1, 4} {
		cfg := faultBaseConfig(29)
		if cfg.Faults[len(cfg.Faults)-1].Kind != FaultHeal {
			t.Fatal("fixture's last fault is not the heal")
		}
		cfg.Faults = cfg.Faults[:len(cfg.Faults)-1] // the 1.8 s cut stays open
		cfg.Shards = shards
		s := NewSession(cfg)
		res := s.Run()
		cut := 0
		for g, st := range s.sub.groups {
			cut += len(st.detached)
			height := 0
			for _, m := range st.tree.Members {
				if st.tree.Attached(m) {
					height = max(height, st.tree.Depth(m))
				}
			}
			if res.TreeLayers[g] != height+1 {
				t.Fatalf("shards=%d group %d: %d layers, the attached part has %d", shards, g, res.TreeLayers[g], height+1)
			}
		}
		if cut == 0 {
			t.Fatalf("shards=%d: no subtree is cut off at the end — the fixture does not leave a partition open", shards)
		}
	}
}

// root is a group's detached subtree root.
type root struct{ g, h int }

// parkedRoots is a partition at 0.8 s healed at 1.7 s, and inside it an
// outage at 1.0 s that takes one root the cut parks and a mass leave at
// 1.1 s that takes another, at another host — read off a run with the
// partition alone.
func parkedRoots(t testing.TB) (cfg Config, down, leave root) {
	side := make([]bool, 24)
	for r := 0; r < 12; r++ {
		side[r] = true
	}
	cut := FaultEvent{At: des.Seconds(0.8), Kind: FaultPartition, ID: 0, Group: -1, Side: side}
	heal := FaultEvent{At: des.Seconds(1.7), Kind: FaultHeal, ID: 0, Group: -1}
	cfg = shardBaseConfig(31)
	cfg.WindowSec = 0.5
	cfg.Faults = []FaultEvent{cut, heal}
	probe := NewSession(cfg)
	probe.Start()
	probe.RunTo(des.Seconds(0.9))
	var parked []root
	for g, st := range probe.sub.groups {
		for _, r := range st.detached {
			parked = append(parked, root{g, r})
		}
	}
	leave = parked[0]
	i := slices.IndexFunc(parked, func(r root) bool { return r.h != leave.h })
	if i < 0 {
		t.Fatalf("the cut parks %v: the fixture needs roots at two hosts", parked)
	}
	down = parked[i]
	cfg.Faults = []FaultEvent{
		cut,
		{At: des.Seconds(1.0), Kind: FaultOutage, ID: 0, Group: -1, Hosts: []int{down.h}},
		{At: des.Seconds(1.1), Kind: FaultMassLeave, Group: leave.g, Hosts: []int{leave.h}},
		heal,
	}
	return cfg, down, leave
}

// TestOutageAndMassLeaveTakeParkedRoots removes parked detached roots
// while a partition is open: an outage takes one, a mass leave another.
// Each must leave its group's deferred-repair set with its membership,
// and the heal must re-attach exactly the roots still parked — never a
// removed one. (The sharded and restored runs of the fixture are the
// fault-parked-roots rows of the identity matrix.)
func TestOutageAndMassLeaveTakeParkedRoots(t *testing.T) {
	cfg, down, leave := parkedRoots(t)
	isParked := func(s *Session, r root) bool { return slices.Contains(s.sub.groups[r.g].detached, r.h) }
	s := NewSession(cfg)
	s.Start()
	s.RunTo(des.Seconds(1.05))
	if isParked(s, down) || s.sub.groups[down.g].member.has(down.h) || !isParked(s, leave) {
		t.Fatalf("after the outage: %v parked %v, %v parked %v", down, isParked(s, down), leave, isParked(s, leave))
	}
	s.RunTo(des.Seconds(1.2))
	if isParked(s, leave) || s.sub.groups[leave.g].member.has(leave.h) {
		t.Fatalf("after the mass leave: %v still parked or a member", leave)
	}
	still := 0
	for _, st := range s.sub.groups {
		still += len(st.detached)
	}
	res := s.Finish()
	if oc := res.Faults; oc[1].Hosts != 1 || oc[2].Hosts != 1 || oc[3].Regrafts != still {
		t.Fatalf("outcomes %+v: want one host each taken and %d roots re-attached at the heal", oc, still)
	}
	for _, r := range []root{down, leave} {
		if slices.Contains(s.sub.groups[r.g].tree.Members, r.h) {
			t.Fatalf("%v is back in its tree after the heal", r)
		}
	}
}
