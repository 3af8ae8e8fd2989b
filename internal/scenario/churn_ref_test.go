package scenario

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/xrand"
)

// refChurnEvents is the schedule builder ChurnEvents replaced, kept as its
// reference: each join scans the hosts for the idx-th non-member, the
// departures wait in a list kept earliest first, and the per-group
// schedules are merged by a stable sort on At.
func refChurnEvents(s Scenario, seed uint64, duration des.Duration, groups []core.GroupSpec) []core.MembershipEvent {
	n := s.Hosts()
	durSec := duration.Seconds()
	var events []core.MembershipEvent
	for g := range groups {
		rate := s.Churn.TurnoverPerSec * float64(len(groups[g].Members))
		if rate <= 0 {
			continue
		}
		rng := xrand.New(xrand.DeriveSeed(seed, g) ^ churnStream)
		member := make([]bool, n)
		count := 0
		for _, m := range groups[g].Members {
			member[m] = true
			count++
		}
		type departure struct {
			at   float64
			host int
		}
		var pending []departure
		pop := func(until float64) {
			for len(pending) > 0 && pending[0].at <= until {
				d := pending[0]
				pending = pending[1:]
				events = append(events, core.MembershipEvent{At: des.Seconds(d.at), Group: g, Host: d.host})
				member[d.host] = false
				count--
			}
		}
		t := s.Churn.StartSec
		for {
			t += rng.Exp(1 / rate)
			if t >= durSec {
				break
			}
			pop(t)
			free := n - count
			if free == 0 {
				continue
			}
			idx := rng.Intn(free)
			host := -1
			for h := 0; h < n; h++ {
				if !member[h] {
					if idx == 0 {
						host = h
						break
					}
					idx--
				}
			}
			events = append(events, core.MembershipEvent{At: des.Seconds(t), Group: g, Host: host, Join: true})
			member[host] = true
			count++
			leaveAt := t + s.Churn.drawLifetime(rng)
			if leaveAt < durSec {
				i := sort.Search(len(pending), func(i int) bool { return pending[i].at > leaveAt })
				pending = append(pending, departure{})
				copy(pending[i+1:], pending[i:])
				pending[i] = departure{at: leaveAt, host: host}
			}
		}
		pop(durSec)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return events
}

// sameSchedule fails unless got and want hold the same events in the same
// order.
func sameSchedule(t *testing.T, got, want []core.MembershipEvent) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d events, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: %+v, reference %+v", i, got[i], want[i])
		}
	}
}

// TestChurnEventsMatchReference: the Fenwick pick and the run merge give
// the reference's schedule event for event — over several seeds, for
// uniform and Zipf membership, and a population so small and so
// subscribed that arrivals find no non-member and are lost.
func TestChurnEventsMatchReference(t *testing.T) {
	cases := map[string]func(*Scenario){
		"uniform": func(*Scenario) {},
		"zipf-turnover": func(s *Scenario) {
			s.NumHosts, s.NumGroups = 700, 9
			s.Membership = Membership{Kind: "zipf", Skew: 1, MinSize: 8}
			s.Churn = Churn{Kind: "poisson", TurnoverPerSec: 0.5, MeanLifetimeSec: 1, StartSec: 0.5}
		},
		"saturated": func(s *Scenario) {
			s.NumHosts = 10
			s.Membership = Membership{Kind: "uniform", Fraction: 0.8, MinSize: 2}
			s.Churn = Churn{Kind: "poisson", TurnoverPerSec: 5, MeanLifetimeSec: 3}
		},
	}
	for name, mutate := range cases {
		sc := churnScenario()
		mutate(&sc)
		if err := sc.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for seed := uint64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				groups := sc.Groups(seed)
				got := sc.ChurnEvents(seed, 6*des.Second, groups)
				if len(got) == 0 {
					t.Fatal("no churn events")
				}
				sameSchedule(t, got, refChurnEvents(sc, seed, 6*des.Second, groups))
			})
		}
	}
}

// TestChurnEventsSaturatedGroup: a group that holds every host loses every
// arrival until a churned-in member leaves, so it starts with no events at
// all — the free == 0 path — and the groups beside it still match.
func TestChurnEventsSaturatedGroup(t *testing.T) {
	sc := churnScenario()
	sc.NumHosts = 12
	all := make([]int, 12)
	for i := range all {
		all[i] = i
	}
	groups := []core.GroupSpec{{Source: 0, Members: all}, {Source: 3, Members: []int{1, 3, 5, 7, 9, 11}}}
	got := sc.ChurnEvents(2, 5*des.Second, groups)
	for _, ev := range got {
		if ev.Group == 0 {
			t.Fatalf("a group of every host churned: %+v", ev)
		}
	}
	sameSchedule(t, got, refChurnEvents(sc, 2, 5*des.Second, groups))
}

// TestMergeRunsMatchesStableSort: merging chronological runs gives what a
// stable sort by At gives, when many events share an At across runs and
// within one, and when runs are empty.
func TestMergeRunsMatchesStableSort(t *testing.T) {
	rng := xrand.New(17)
	for trial := 0; trial < 200; trial++ {
		var steps []churnStep
		var want []core.MembershipEvent
		runs := []int{0}
		for g := range 1 + rng.Intn(9) {
			at := des.Time(0)
			for range rng.Intn(12) {
				at += des.Time(rng.Intn(3))
				join := rng.Bool(0.5)
				steps = append(steps, churnStep{at: at, host: int32(len(steps)), join: join})
				want = append(want, core.MembershipEvent{At: at, Group: g, Host: len(want), Join: join})
			}
			runs = append(runs, len(steps))
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].At < want[j].At })
		sameSchedule(t, mergeRuns(steps, runs), want)
	}
}

// TestChurnEventsAllocations: a schedule costs a few objects per group and
// none per join — the pick tree is one buffer for every group and the
// departures list is reused — so four times the duration adds only the
// doublings of the growing slices.
func TestChurnEventsAllocations(t *testing.T) {
	sc := churnScenario()
	sc.NumHosts, sc.NumGroups = 2000, 16
	sc.Membership = Membership{Kind: "zipf", Skew: 1, MinSize: 8}
	sc.Churn = Churn{Kind: "poisson", TurnoverPerSec: 0.5, MeanLifetimeSec: 1, StartSec: 0.5}
	groups := sc.Groups(1)
	count := func(d des.Duration) (float64, int) {
		var joins int
		objects := testing.AllocsPerRun(3, func() {
			joins = len(sc.ChurnEvents(1, d, groups))
		})
		return objects, joins
	}
	short, n1 := count(3 * des.Second)
	long, n4 := count(12 * des.Second)
	t.Logf("%d events: %.0f objects; %d events: %.0f objects", n1, short, n4, long)
	if limit := float64(2*len(groups) + 40); long > limit {
		t.Errorf("%d events allocated %.0f objects; budget %.0f", n4, long, limit)
	}
	// Each doubling of the events and of the departures list is an
	// object: a few per doubling of the event count. The reference makes
	// 176 and 324 objects here: a member list per group, and its
	// departures list, popped from the front, regrows as it drains.
	if limit := 3 * math.Ceil(math.Log2(float64(n4)/float64(n1))+1); long-short > limit {
		t.Errorf("%.1f times the events (%d → %d) added %.0f objects; budget %.0f",
			float64(n4)/float64(n1), n1, n4, long-short, limit)
	}
}

// FuzzChurnEvents holds ChurnEvents to refChurnEvents on fuzzed
// populations: up to 64 hosts, up to 8 groups whose member sets are drawn
// from the input (a group may hold every host), and fuzzed turnover and
// mean lifetime.
func FuzzChurnEvents(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(3), uint8(30), uint8(4), []byte{1, 2, 3, 250})
	f.Add(uint64(7), uint8(6), uint8(2), uint8(200), uint8(20), []byte{255, 255, 0})
	f.Add(uint64(3), uint8(63), uint8(8), uint8(5), uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, hosts, ngroups, turnover, life uint8, fill []byte) {
		n, k := 1+int(hosts)%64, 1+int(ngroups)%8
		sc := Scenario{Name: "fuzz", NumHosts: n, NumGroups: k,
			Churn: Churn{Kind: "poisson", TurnoverPerSec: 0.05 + float64(turnover)/64, MeanLifetimeSec: 0.05 + float64(life)/16}}
		rng := xrand.New(seed)
		groups := make([]core.GroupSpec, k)
		for g := range groups {
			share := 0.5
			if g < len(fill) {
				share = float64(fill[g]) / 255
			}
			for h := 0; h < n; h++ {
				if h == g%n || rng.Float64() < share {
					groups[g].Members = append(groups[g].Members, h)
				}
			}
			groups[g].Source = g % n
		}
		got := sc.ChurnEvents(seed, 3*des.Second, groups)
		sameSchedule(t, got, refChurnEvents(sc, seed, 3*des.Second, groups))
	})
}
