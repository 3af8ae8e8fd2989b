package scenario

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/topo"
)

func TestRegistryHasPaperEntriesAndScale(t *testing.T) {
	names := Names()
	if len(names) < 6 {
		t.Fatalf("registry has %d scenarios, want >= 6: %v", len(names), names)
	}
	for _, want := range []string{"paper-fig4", "paper-fig6", "waxman-zipf-16"} {
		if _, err := Lookup(want); err != nil {
			t.Fatalf("registry missing %s: %v", want, err)
		}
	}
	if sc := MustLookup("waxman-zipf-16"); sc.Hosts() != 2000 || sc.GroupCount() != 16 {
		t.Fatalf("scale benchmark is %d hosts x %d groups", sc.Hosts(), sc.GroupCount())
	}
}

// Panels (b) and (c) of the paper's figures are the (a) entries under
// another mix: clearing name, description and mix leaves identical specs.
func TestPaperPanelsDifferOnlyInMix(t *testing.T) {
	for _, base := range []string{"paper-fig4", "paper-fig6"} {
		want := MustLookup(base)
		for suffix, mix := range map[string]string{"b": "video", "c": "hetero"} {
			got := MustLookup(base + suffix)
			if got.Mix != mix {
				t.Fatalf("%s%s: mix %q, want %q", base, suffix, got.Mix, mix)
			}
			got.Name, got.Description, got.Mix = want.Name, want.Description, want.Mix
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s%s differs from %s beyond the mix:\n  %+v\n  %+v", base, suffix, base, got, want)
			}
		}
	}
}

func TestEveryRegisteredScenarioValidates(t *testing.T) {
	for _, sc := range All() {
		if err := sc.Validate(); err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	for _, sc := range All() {
		data, err := sc.JSON()
		if err != nil {
			t.Fatalf("%s: marshal: %v", sc.Name, err)
		}
		back, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: parse: %v", sc.Name, err)
		}
		if !reflect.DeepEqual(sc, back) {
			t.Fatalf("%s: JSON round trip diverged:\n%+v\n%+v", sc.Name, sc, back)
		}
	}
}

func TestParseRejectsInvalid(t *testing.T) {
	cases := []string{
		`{"combos":[{"scheme":"sigma-rho"}]}`,                                          // no name
		`{"name":"x"}`,                                                                 // no combos
		`{"name":"x","combos":[{"scheme":"bogus"}]}`,                                   // bad scheme
		`{"name":"x","combos":[{"scheme":"sigma-rho","tree":"bogus"}]}`,                // bad tree
		`{"name":"x","mix":"polka","combos":[{"scheme":"sigma-rho"}]}`,                 // bad mix
		`{"name":"x","topology":{"kind":"moebius"},"combos":[{"scheme":"sigma-rho"}]}`, // bad topo
		`{"name":"x","loads":[1.5],"combos":[{"scheme":"sigma-rho"}]}`,                 // bad load
		`{"name":"x","capacity":{"kind":"classes"},"combos":[{"scheme":"sigma-rho"}]}`, // empty classes
	}
	for _, data := range cases {
		if _, err := Parse([]byte(data)); err == nil {
			t.Fatalf("Parse accepted %s", data)
		}
	}
}

func TestZipfMembershipShape(t *testing.T) {
	sc := Scenario{
		Name: "t", NumHosts: 1000, NumGroups: 8,
		Membership: Membership{Kind: "zipf", Skew: 1.0, MinSize: 5},
		Combos:     []Combo{{Scheme: "sigma-rho-lambda"}},
	}
	groups := sc.Groups(3)
	if len(groups) != 8 {
		t.Fatalf("%d groups", len(groups))
	}
	prev := len(groups[0].Members)
	for g, spec := range groups {
		size := len(spec.Members)
		if size < 5 || size > 1000 {
			t.Fatalf("group %d size %d outside [5,1000]", g, size)
		}
		if size > prev {
			t.Fatalf("zipf sizes not non-increasing: group %d has %d > %d", g, size, prev)
		}
		prev = size
		inSet := false
		last := -1
		for _, m := range spec.Members {
			if m <= last {
				t.Fatalf("group %d members not sorted/unique", g)
			}
			last = m
			if m == spec.Source {
				inSet = true
			}
		}
		if !inSet {
			t.Fatalf("group %d source %d not a member", g, spec.Source)
		}
	}
	// Head group ≈ N/H(K,1), tail ≈ head/K — the skew must be real.
	if head, tail := len(groups[0].Members), len(groups[7].Members); head < 4*tail {
		t.Fatalf("zipf skew too flat: head %d vs tail %d", head, tail)
	}
}

func TestGroupsArePureFunctionOfSeed(t *testing.T) {
	sc := MustLookup("waxman-zipf-16")
	a, b := sc.Groups(5), sc.Groups(5)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("membership not deterministic per seed")
	}
	c := sc.Groups(6)
	if reflect.DeepEqual(a, c) {
		t.Fatal("membership ignores the seed")
	}
}

func TestFullMembershipCompilesToNilGroups(t *testing.T) {
	sc := MustLookup("paper-fig6")
	if g := sc.Groups(1); g != nil {
		t.Fatalf("full membership produced %d explicit groups; the implicit paper path must be used", len(g))
	}
}

func TestSessionConfigCompiles(t *testing.T) {
	for _, sc := range All() {
		cfg, err := sc.SessionConfig(sc.Combos[0], 0.5, 1, core.UseSeed(2), 3*des.Second, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if cfg.Load != 0.5 || cfg.Seed != 1 || cfg.TrafficSeed.Or(1) != 2 || cfg.Duration != 3*des.Second {
			t.Fatalf("%s: cell fields lost: %+v", sc.Name, cfg)
		}
		if cfg.NumHosts != sc.Hosts() || cfg.NumGroups != sc.GroupCount() || cfg.Topology == nil {
			t.Fatalf("%s: config fields lost: %+v", sc.Name, cfg)
		}
		if sc.Kind == KindSingleHop {
			// The preset is core's shape constructor and nothing else.
			if !reflect.DeepEqual(cfg, core.OneHop(cfg)) || len(cfg.Groups) != sc.GroupCount() {
				t.Fatalf("%s: not the one-hop shape: %+v", sc.Name, cfg)
			}
			continue
		}
		if sc.Membership.Full() != (cfg.Groups == nil) {
			t.Fatalf("%s: membership compile mismatch", sc.Name)
		}
		if (sc.Capacity.Kind == "classes") != (len(cfg.UplinkClasses) > 0) {
			t.Fatalf("%s: capacity compile mismatch", sc.Name)
		}
	}
}

// "kind": "single-hop" is a shape preset resolved by SessionConfig: whatever
// population the spec (or a -hosts override, or Quick) carries, the cell is
// core.OneHop's two hosts, and an unset duration is its 36 s — against 15 s
// for a multi-group spec. The unregulated comparator is as valid there as
// anywhere.
func TestSingleHopKindIsTheOneHopPreset(t *testing.T) {
	sc, err := Parse([]byte(`{"name":"x","kind":"single-hop","mix":"video","combos":[{"scheme":"capacity-aware"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	crowded := sc
	crowded.NumHosts = 200
	for _, v := range []Scenario{sc, sc.Quick(), crowded} {
		cfg, err := v.SessionConfig(v.Combos[0], 0.5, 1, core.UseSeed(2), 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := 36 * des.Second
		if v.DurationSec > 0 {
			want = des.Seconds(v.DurationSec)
		}
		if cfg.NumHosts != 2 || cfg.Topology != (topo.Wire{}) || len(cfg.Groups) != 3 || cfg.Duration != want {
			t.Fatalf("one-hop preset compiled to %+v", cfg)
		}
		for g, spec := range cfg.Groups {
			if spec.Source != 0 || !reflect.DeepEqual(spec.Members, []int{0, 1}) {
				t.Fatalf("group %d is %+v, want host 0 feeding host 1", g, spec)
			}
		}
	}
	multi := MustLookup("paper-fig6")
	cfg, err := multi.SessionConfig(multi.Combos[0], 0.5, 1, core.UseSeed(2), 0, nil, nil)
	if err != nil || cfg.Duration != 15*des.Second {
		t.Fatalf("multi-group default horizon %v (err %v), want 15 s", cfg.Duration, err)
	}
}

// An uplink class too slow for the load's flow envelopes must surface as
// a config error at compile time, not a panic mid-sweep.
func TestSessionConfigRejectsUndersizedUplinkClass(t *testing.T) {
	sc := Scenario{
		Name: "t", Mix: "video", NumHosts: 20,
		Capacity: Capacity{Kind: "classes", Classes: []CapacityClass{{Mult: 0.2, Weight: 1}}},
		Combos:   []Combo{{Scheme: "sigma-rho-lambda"}},
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.SessionConfig(sc.Combos[0], 0.9, 1, core.UseSeed(1), des.Second, nil, nil); err == nil {
		t.Fatal("0.2x uplink class at load 0.9 must be rejected")
	}
	if _, err := sc.SessionConfig(sc.Combos[0], 0.2, 1, core.UseSeed(1), des.Second, nil, nil); err != nil {
		t.Fatalf("0.2x uplink class at load 0.2 should fit: %v", err)
	}
}

func TestQuickReducesScale(t *testing.T) {
	sc := MustLookup("waxman-zipf-16").Quick()
	if sc.NumHosts > 150 || len(sc.Loads) > 2 || sc.DurationSec > 3 {
		t.Fatalf("Quick did not reduce: %d hosts, %d loads, %vs", sc.NumHosts, len(sc.Loads), sc.DurationSec)
	}
	if sc.GroupCount() != 16 {
		t.Fatal("Quick must preserve the group structure")
	}
}

func TestRegisterRejectsDuplicatesAndInvalid(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("duplicate registration must panic")
			}
		}()
		Register(MustLookup("paper-fig4"))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("invalid registration must panic")
			}
		}()
		Register(Scenario{Name: "broken"})
	}()
}

// TestTopologyBelowMinimumIsAnError: a router count below its family's
// minimum — waxman under 2, ring under 3, star under 2, a transit-stub
// dimension under its floor, any negative count — is refused by Parse
// (Topology.Generator, through Validate) instead of passing it and
// panicking in the generator when a session is built. Counts at the
// minimum, and 0 (the family default), still build.
func TestTopologyBelowMinimumIsAnError(t *testing.T) {
	bad := []string{
		`{"kind":"waxman","nodes":1}`,
		`{"kind":"waxman","nodes":-4}`,
		`{"kind":"ring","nodes":2}`,
		`{"kind":"ring","nodes":1}`,
		`{"kind":"ring","nodes":-1}`,
		`{"kind":"star","nodes":1}`,
		`{"kind":"star","nodes":-3}`,
		`{"kind":"transit-stub","transits":1}`,
		`{"kind":"transit-stub","transits":-2}`,
		`{"kind":"transit-stub","stubs_per_transit":-1}`,
		`{"kind":"transit-stub","stub_size":-1}`,
	}
	good := []string{
		`{"kind":"waxman","nodes":2}`,
		`{"kind":"waxman"}`,
		`{"kind":"ring","nodes":3}`,
		`{"kind":"star","nodes":2}`,
		`{"kind":"transit-stub","transits":2,"stubs_per_transit":1,"stub_size":1}`,
	}
	spec := func(topology string) []byte {
		return []byte(`{"name":"x","num_hosts":40,"topology":` + topology +
			`,"duration_sec":0.2,"loads":[0.5],"combos":[{"scheme":"sigma-rho-lambda","tree":"dsct"}]}`)
	}
	// build runs a spec the way the CLI does — Parse, then a session of
	// its first cell — and turns a panic on the way into a failure.
	build := func(topology string) (err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: panicked: %v", topology, r)
			}
		}()
		sc, err := Parse(spec(topology))
		if err != nil {
			return err
		}
		cfg, err := sc.SessionConfig(sc.Combos[0], sc.Loads[0], 1, core.UseSeed(1), 0, nil, nil)
		if err != nil {
			return err
		}
		core.NewSession(cfg)
		return nil
	}
	for _, topology := range bad {
		if err := build(topology); err == nil {
			t.Errorf("%s: accepted", topology)
		}
	}
	for _, topology := range good {
		if err := build(topology); err != nil {
			t.Errorf("%s: %v", topology, err)
		}
	}
}

// TestValidateRejectsSecondsTheClockCannotHold: duration_sec and
// window_sec take 0 (the default) or a span the nanosecond clock holds.
// 1e11 s overflows it — every cell ran with nothing delivered — and
// 1e-12 s rounds to 0 ns, which silently selected the default horizon.
func TestValidateRejectsSecondsTheClockCannotHold(t *testing.T) {
	for _, tc := range []struct {
		sec float64
		ok  bool
	}{
		{0, true},
		{1e-9, true},
		{2.5, true},
		{9e9, true},
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
		{-1, false},
		{1e-12, false},
		{0.9e-9, false},
		{1e11, false},
		{float64(math.MaxInt64) / 1e9, false},
	} {
		for _, field := range []string{"duration_sec", "window_sec"} {
			sc := MustLookup("waxman-zipf-16").Quick()
			if field == "duration_sec" {
				sc.DurationSec = tc.sec
			} else {
				sc.WindowSec = tc.sec
			}
			if err := sc.Validate(); (err == nil) != tc.ok {
				t.Errorf("%s = %v: Validate returned %v, want ok=%v", field, tc.sec, err, tc.ok)
			}
		}
	}
}
