package scenario

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/des"
)

func churnScenario() Scenario {
	return Scenario{
		Name:       "churn-test",
		NumHosts:   120,
		NumGroups:  4,
		Membership: Membership{Kind: "uniform", Fraction: 0.3},
		Churn:      Churn{Kind: "poisson", TurnoverPerSec: 0.1, MeanLifetimeSec: 1},
		Combos:     []Combo{{Scheme: "sigma-rho-lambda"}},
	}
}

func TestChurnEventsDeterministicAndWellFormed(t *testing.T) {
	sc := churnScenario()
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	a := sc.ChurnEvents(5, 4*des.Second, nil)
	b := sc.ChurnEvents(5, 4*des.Second, nil)
	if len(a) == 0 {
		t.Fatal("no churn events materialised")
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic: %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Chronological, in range, and every leave matches an earlier join of
	// a churned-in host (initial members never leave).
	groups := sc.Groups(5)
	member := make([]map[int]bool, len(groups))
	initial := make([]map[int]bool, len(groups))
	for g, spec := range groups {
		member[g] = map[int]bool{}
		initial[g] = map[int]bool{}
		for _, m := range spec.Members {
			member[g][m] = true
			initial[g][m] = true
		}
	}
	var last des.Time
	joins, leaves := 0, 0
	for i, ev := range a {
		if ev.At < last {
			t.Fatalf("event %d out of order", i)
		}
		last = ev.At
		if ev.At > 4*des.Second {
			t.Fatalf("event %d beyond duration: %v", i, ev.At)
		}
		if ev.Group < 0 || ev.Group >= 4 || ev.Host < 0 || ev.Host >= 120 {
			t.Fatalf("event %d out of range: %+v", i, ev)
		}
		if ev.Join {
			if member[ev.Group][ev.Host] {
				t.Fatalf("event %d joins an existing member: %+v", i, ev)
			}
			member[ev.Group][ev.Host] = true
			joins++
		} else {
			if !member[ev.Group][ev.Host] {
				t.Fatalf("event %d leaves a non-member: %+v", i, ev)
			}
			if initial[ev.Group][ev.Host] {
				t.Fatalf("event %d churns out an initial member: %+v", i, ev)
			}
			if ev.Host == groups[ev.Group].Source {
				t.Fatalf("event %d churns out the source: %+v", i, ev)
			}
			member[ev.Group][ev.Host] = false
			leaves++
		}
	}
	if joins == 0 || leaves == 0 {
		t.Fatalf("schedule has %d joins, %d leaves — want both", joins, leaves)
	}
}

// Enabling churn must not perturb the static streams: membership and
// session config (minus events/window) stay identical.
func TestChurnDoesNotPerturbStaticStreams(t *testing.T) {
	sc := churnScenario()
	static := sc
	static.Churn = Churn{}
	if ga, gb := sc.Groups(9), static.Groups(9); len(ga) != len(gb) {
		t.Fatal("group counts diverged")
	} else {
		for g := range ga {
			if ga[g].Source != gb[g].Source || len(ga[g].Members) != len(gb[g].Members) {
				t.Fatalf("group %d membership perturbed by churn", g)
			}
			for i := range ga[g].Members {
				if ga[g].Members[i] != gb[g].Members[i] {
					t.Fatalf("group %d member %d perturbed", g, i)
				}
			}
		}
	}
	ca, err := sc.SessionConfig(sc.Combos[0], 0.7, 9, core.UseSeed(1), 3*des.Second, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := static.SessionConfig(sc.Combos[0], 0.7, 9, core.UseSeed(1), 3*des.Second, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ca.Events) == 0 || len(cb.Events) != 0 {
		t.Fatalf("events: churn %d, static %d", len(ca.Events), len(cb.Events))
	}
	if ca.Seed != cb.Seed || ca.NumHosts != cb.NumHosts || len(ca.Groups) != len(cb.Groups) {
		t.Fatal("static config fields perturbed by churn")
	}
}

func TestChurnTurnoverScalesWithGroupSize(t *testing.T) {
	sc := churnScenario()
	sc.Membership = Membership{Kind: "zipf", Skew: 1.2, MinSize: 4}
	sc.Churn = Churn{Kind: "poisson", TurnoverPerSec: 0.05, MeanLifetimeSec: 1}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	groups := sc.Groups(3)
	events := sc.ChurnEvents(3, 10*des.Second, groups)
	joins := make([]int, len(groups))
	for _, ev := range events {
		if ev.Join {
			joins[ev.Group]++
		}
	}
	// The largest (first) Zipf group must see more arrivals than the
	// smallest — the rates scale with group size.
	if joins[0] <= joins[len(groups)-1] {
		t.Fatalf("turnover not size-scaled: %v", joins)
	}
}

func TestChurnValidation(t *testing.T) {
	bad := []func(*Scenario){
		func(s *Scenario) { s.Churn.Kind = "flash-crowd" },
		func(s *Scenario) { s.Churn.TurnoverPerSec = 0 }, // no rate at all
		func(s *Scenario) { s.Churn.TurnoverPerSec = -1 },
		func(s *Scenario) { s.Churn.MeanLifetimeSec = -1 },
		func(s *Scenario) { s.Churn.StartSec = -1 },
		func(s *Scenario) { s.Membership = Membership{} }, // full membership
		func(s *Scenario) { s.Combos = append(s.Combos, Combo{Scheme: "capacity-aware"}) },
		func(s *Scenario) { s.Kind = KindSingleHop },
	}
	for i, mutate := range bad {
		sc := churnScenario()
		mutate(&sc)
		if err := sc.Validate(); err == nil {
			t.Fatalf("case %d: invalid churn scenario accepted", i)
		}
	}
}

func TestChurnScenarioRegisteredAndRoundTrips(t *testing.T) {
	sc := MustLookup("churn-waxman-16")
	if !sc.Churn.Enabled() {
		t.Fatal("churn-waxman-16 has no churn")
	}
	data, err := sc.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Churn.Kind != sc.Churn.Kind || back.Churn.TurnoverPerSec != sc.Churn.TurnoverPerSec ||
		back.Churn.MeanLifetimeSec != sc.Churn.MeanLifetimeSec ||
		back.Churn.StartSec != sc.Churn.StartSec || back.WindowSec != sc.WindowSec {
		t.Fatalf("churn spec did not round-trip: %+v vs %+v", back.Churn, sc.Churn)
	}
}

// TestChurnEventsBytes holds a compiled schedule to its result plus one
// scratch: on churn-waxman-16 at churn-storm's turnover (half of each group
// a second, one-second stays), drawn for 12 and for 120 s, ChurnEvents
// allocates at most 1.75 times its result's bytes — the result, a step
// scratch of half an event per step sized from the rates and the duration
// before the first draw, the departures list and the pick tree. Grown by
// doubling, the scratch read 3.26 and 3.96 times.
func TestChurnEventsBytes(t *testing.T) {
	sc := MustLookup("churn-waxman-16")
	sc.Churn.TurnoverPerSec, sc.Churn.MeanLifetimeSec = 0.5, 1
	groups := sc.Groups(1)
	for _, d := range []des.Duration{12 * des.Second, 120 * des.Second} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		events := sc.ChurnEvents(1, d, groups)
		runtime.ReadMemStats(&after)
		made := after.TotalAlloc - before.TotalAlloc
		result := uint64(cap(events)) * uint64(unsafe.Sizeof(events[0]))
		t.Logf("%v: %d events, %d B allocated for a %d B result (%.2f×)", d, len(events), made, result, float64(made)/float64(result))
		if float64(made) > 1.75*float64(result) {
			t.Errorf("%v: %d B allocated for a %d B result, over 1.75×", d, made, result)
		}
	}
}
