package scenario

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
)

// Misspelt or unknown keys must fail the parse loudly instead of running
// the default configuration — the classic "stratagy": "spt" typo would
// otherwise silently sweep dsct.
func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{
		"name": "typo",
		"stratagy": "spt",
		"combos": [{"scheme": "sigma-rho-lambda"}]
	}`))
	if err == nil {
		t.Fatal("unknown field decoded without error")
	}
	if !strings.Contains(err.Error(), "stratagy") {
		t.Fatalf("error does not name the offending key: %v", err)
	}
	// Nested unknown keys are rejected too.
	_, err = Parse([]byte(`{
		"name": "typo2",
		"reoptimize": {"every_secs": 1},
		"combos": [{"scheme": "sigma-rho-lambda"}]
	}`))
	if err == nil {
		t.Fatal("unknown nested field decoded without error")
	}
	// Keys deleted from the churn and re-optimization specs are unknown
	// too, not settings a spec silently loses.
	for key, spec := range map[string]string{
		"rate":            `"churn": {"kind": "poisson", "rate": 3}`,
		"per_group_rates": `"churn": {"kind": "poisson", "per_group_rates": [1, 2]}`,
		"lifetime":        `"churn": {"kind": "poisson", "turnover_per_sec": 0.1, "lifetime": "exponential"}`,
		"pareto_alpha":    `"churn": {"kind": "poisson", "turnover_per_sec": 0.1, "pareto_alpha": 1.5}`,
		"mode":            `"reoptimize": {"every_sec": 1, "mode": "rewire"}`,
	} {
		_, err = Parse([]byte(`{"name": "removed", ` + spec + `, "combos": [{"scheme": "sigma-rho-lambda"}]}`))
		if err == nil || !strings.Contains(err.Error(), `unknown field "`+key+`"`) {
			t.Errorf("%s: err = %v, want an unknown-field error", key, err)
		}
	}
	// Trailing data after the spec is rejected (json.Unmarshal's old
	// strictness, preserved through the Decoder switch).
	_, err = Parse([]byte(`{"name": "a", "combos": [{"scheme": "sigma-rho"}]} {"name": "b"}`))
	if err == nil {
		t.Fatal("trailing data decoded without error")
	}
	// The exact same scenario with correct keys parses.
	s, err := Parse([]byte(`{
		"name": "ok",
		"strategy": "spt",
		"reoptimize": {"every_sec": 1},
		"combos": [{"scheme": "sigma-rho-lambda"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Strategy != "spt" || !s.Reopt.Enabled() {
		t.Fatalf("parsed scenario lost fields: %+v", s)
	}
}

func TestStrategyForPrecedence(t *testing.T) {
	s := Scenario{Strategy: "spt"}
	cases := []struct {
		combo Combo
		want  string
	}{
		{Combo{Scheme: "sigma-rho-lambda", Strategy: "greedy"}, "greedy"},
		{Combo{Scheme: "sigma-rho-lambda", Tree: "nice"}, "nice"},
		{Combo{Scheme: "sigma-rho-lambda"}, "spt"},
		{Combo{Scheme: "capacity-aware", Tree: "dsct"}, ""},
	}
	for _, c := range cases {
		if got := s.StrategyFor(c.combo); got != c.want {
			t.Fatalf("StrategyFor(%+v) = %q, want %q", c.combo, got, c.want)
		}
	}
	bare := Scenario{}
	if got := bare.StrategyFor(Combo{Scheme: "sigma-rho-lambda"}); got != "" {
		t.Fatalf("bare scenario resolves %q, want empty (core default)", got)
	}
}

func TestComboStringIncludesStrategy(t *testing.T) {
	cases := []struct {
		combo Combo
		want  string
	}{
		{Combo{Scheme: "sigma-rho-lambda", Tree: "dsct"}, "sigma-rho-lambda dsct"},
		{Combo{Scheme: "sigma-rho-lambda", Strategy: "spt"}, "sigma-rho-lambda spt"},
		{Combo{Scheme: "sigma-rho"}, "sigma-rho"},
	}
	for _, c := range cases {
		if got := c.combo.String(); got != c.want {
			t.Fatalf("String(%+v) = %q, want %q", c.combo, got, c.want)
		}
	}
}

func TestValidateStrategyAndReopt(t *testing.T) {
	valid := Scenario{
		Name:   "v",
		Combos: []Combo{{Scheme: "sigma-rho-lambda", Strategy: "spt"}},
		Reopt:  Reoptimize{EverySec: 1, MinImprove: 0.05},
	}
	if err := valid.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Scenario{
		// unknown strategy names, scenario- and combo-level
		{Name: "b1", Strategy: "nope", Combos: []Combo{{Scheme: "sigma-rho"}}},
		{Name: "b2", Combos: []Combo{{Scheme: "sigma-rho", Strategy: "nope"}}},
		// tree and strategy on the same combo
		{Name: "b3", Combos: []Combo{{Scheme: "sigma-rho", Tree: "dsct", Strategy: "spt"}}},
		// strategy on a capacity-aware combo
		{Name: "b4", Combos: []Combo{{Scheme: "capacity-aware", Strategy: "spt"}}},
		// re-optimization over capacity-aware trees
		{Name: "b5", Combos: []Combo{{Scheme: "capacity-aware"}},
			Reopt: Reoptimize{EverySec: 1}},
		// re-optimization on a single-hop scenario
		{Name: "b6", Kind: KindSingleHop, Combos: []Combo{{Scheme: "sigma-rho"}},
			Reopt: Reoptimize{EverySec: 1}},
		// parameters without a period
		{Name: "b7", Combos: []Combo{{Scheme: "sigma-rho"}},
			Reopt: Reoptimize{MinImprove: 0.2}},
		// hysteresis outside [0,1)
		{Name: "b8", Combos: []Combo{{Scheme: "sigma-rho"}},
			Reopt: Reoptimize{EverySec: 1, MinImprove: 1.5}},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("scenario %s validated", s.Name)
		}
	}
}

func TestReoptimizeCompile(t *testing.T) {
	r := Reoptimize{EverySec: 2, MinImprove: 0.07, CooldownSec: 3, MaxMoves: 5}
	cfg := r.compile()
	if cfg.Every != 2*des.Second || cfg.Cooldown != 3*des.Second {
		t.Fatalf("times: %+v", cfg)
	}
	if cfg.MinImprove != 0.07 || cfg.MaxMoves != 5 {
		t.Fatalf("params: %+v", cfg)
	}
	if (Reoptimize{}).compile() != (core.ReoptConfig{}) {
		t.Fatal("disabled reoptimize compiles to a non-zero config")
	}
}

// The two new builtins must be registered, JSON round-trip under the
// strict decoder, and compile into runnable configs with the strategy
// and re-optimization fields threaded through.
func TestStrategyBuiltinsCompile(t *testing.T) {
	for _, name := range []string{"spt-waxman-16", "reopt-churn-waxman-16"} {
		sc := MustLookup(name)
		data, err := sc.JSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if back.Name != name {
			t.Fatalf("round trip lost the name: %q", back.Name)
		}
		groups := sc.Groups(1)
		for _, combo := range sc.Combos {
			cfg, err := sc.SessionConfig(combo, 0.8, 1, core.UseSeed(2), des.Second, nil, groups)
			if err != nil {
				t.Fatalf("%s %v: %v", name, combo, err)
			}
			if want := sc.StrategyFor(combo); cfg.Strategy != want {
				t.Fatalf("%s %v: strategy %q, want %q", name, combo, cfg.Strategy, want)
			}
			if sc.Reopt.Enabled() != cfg.Reopt.Enabled() {
				t.Fatalf("%s %v: reopt not threaded", name, combo)
			}
		}
	}
}
