package scenario

// The built-in registry: the paper's two experiment families as plain
// entries (three panels each), the production-scale partial-membership benchmark, and
// structural variations (heterogeneous uplinks, degenerate underlays,
// stochastic workload) that probe how far the paper's conclusions carry.

// Fig6Combos is the paper's six scheme/tree series, in figure order.
var Fig6Combos = []Combo{
	{Scheme: "capacity-aware", Tree: "dsct"},
	{Scheme: "sigma-rho", Tree: "dsct"},
	{Scheme: "sigma-rho-lambda", Tree: "dsct"},
	{Scheme: "capacity-aware", Tree: "nice"},
	{Scheme: "sigma-rho", Tree: "nice"},
	{Scheme: "sigma-rho-lambda", Tree: "nice"},
}

func init() {
	fig4 := Scenario{
		Name: "paper-fig4",
		Description: "Fig. 4(a): three audio flows through one regulated MUX, " +
			"(σ,ρ) vs (σ,ρ,λ) over the load grid",
		Kind: KindSingleHop,
		Mix:  "audio",
		// The preset's own shape, spelt out so listings and JSON dumps show
		// what runs.
		NumHosts: 2,
		Topology: Topology{Kind: "wire"},
		Combos: []Combo{
			{Scheme: "sigma-rho"},
			{Scheme: "sigma-rho-lambda"},
		},
	}
	fig6 := Scenario{
		Name: "paper-fig6",
		Description: "Fig. 6(a): 665 hosts, three full-membership audio groups " +
			"on the 19-router backbone, all six scheme/tree combinations",
		Kind:     KindMultiGroup,
		Mix:      "audio",
		NumHosts: 665,
		Combos:   Fig6Combos,
	}
	Register(fig4)
	Register(fig6)
	// Panels (b) and (c) of both figures are the (a) entries under the
	// video and heterogeneous mixes — nothing else differs.
	for _, panel := range []struct{ suffix, mix, flows string }{
		{"b", "video", "three video"},
		{"c", "hetero", "one video + two audio"},
	} {
		b4, b6 := fig4, fig6
		b4.Name, b6.Name = fig4.Name+panel.suffix, fig6.Name+panel.suffix
		b4.Mix, b6.Mix = panel.mix, panel.mix
		b4.Description = "Fig. 4(" + panel.suffix + "): paper-fig4 with " + panel.flows + " flows"
		b6.Description = "Fig. 6(" + panel.suffix + "): paper-fig6 with " + panel.flows + " groups"
		Register(b4)
		Register(b6)
	}
	Register(Scenario{
		Name: "waxman-zipf-16",
		Description: "the scale benchmark: 2000 hosts on a 64-router Waxman " +
			"underlay, 16 overlapping groups with Zipf-skewed membership",
		Kind:      KindMultiGroup,
		Mix:       "audio",
		NumHosts:  2000,
		NumGroups: 16,
		Topology:  Topology{Kind: "waxman", Nodes: 64},
		Membership: Membership{
			Kind:    "zipf",
			Skew:    1.0,
			MinSize: 8,
		},
		Combos: []Combo{
			{Scheme: "sigma-rho-lambda", Tree: "dsct"},
			{Scheme: "sigma-rho", Tree: "dsct"},
		},
		Loads:       []float64{0.5, 0.8, 0.95},
		DurationSec: 5,
	})
	Register(Scenario{
		Name: "waxman-zipf-64",
		Description: "the sharding headroom benchmark: 10k hosts on a 128-router " +
			"Waxman underlay, 64 overlapping Zipf groups — 5x the scale benchmark, " +
			"sized for multi-core sharded runs (wdcsim -shards N)",
		Kind:      KindMultiGroup,
		Mix:       "audio",
		NumHosts:  10000,
		NumGroups: 64,
		Topology:  Topology{Kind: "waxman", Nodes: 128},
		Membership: Membership{
			Kind:    "zipf",
			Skew:    1.0,
			MinSize: 8,
		},
		Combos: []Combo{
			{Scheme: "sigma-rho-lambda", Tree: "dsct"},
		},
		Loads:       []float64{0.8},
		DurationSec: 5,
	})
	Register(Scenario{
		Name: "waxman-zipf-512",
		Description: "the 100k-host stress benchmark: 100k hosts on a 256-router " +
			"Waxman underlay, 512 overlapping Zipf groups — exercises the flattened " +
			"substrate and sparse mux at an order of magnitude past waxman-zipf-64; " +
			"run short (wdcsim -duration 0.5) unless you mean it",
		Kind:      KindMultiGroup,
		Mix:       "audio",
		NumHosts:  100000,
		NumGroups: 512,
		Topology:  Topology{Kind: "waxman", Nodes: 256},
		Membership: Membership{
			Kind:    "zipf",
			Skew:    1.0,
			MinSize: 8,
		},
		Combos: []Combo{
			{Scheme: "sigma-rho-lambda", Tree: "dsct"},
		},
		Loads:       []float64{0.8},
		DurationSec: 2,
	})
	Register(Scenario{
		Name: "churn-waxman-16",
		Description: "dynamic membership: the scale benchmark under ~10% turnover — " +
			"2000 hosts, 64-router Waxman, 16 Zipf groups, Poisson joins, exponential lifetimes",
		Kind:      KindMultiGroup,
		Mix:       "audio",
		NumHosts:  2000,
		NumGroups: 16,
		Topology:  Topology{Kind: "waxman", Nodes: 64},
		Membership: Membership{
			Kind:    "zipf",
			Skew:    1.0,
			MinSize: 8,
		},
		// ~2% of each group's population arrives per second; over the 5 s
		// run that is ~10% membership turnover per group, with mean 2 s
		// stays so most churned-in members also depart mid-run.
		Churn: Churn{
			Kind:            "poisson",
			TurnoverPerSec:  0.02,
			MeanLifetimeSec: 2,
			StartSec:        0.5,
		},
		WindowSec: 0.5,
		Combos: []Combo{
			{Scheme: "sigma-rho-lambda", Tree: "dsct"},
			{Scheme: "sigma-rho", Tree: "dsct"},
		},
		Loads:       []float64{0.5, 0.8},
		DurationSec: 5,
	})
	Register(Scenario{
		Name: "outage-waxman-16",
		Description: "correlated failures: the scale benchmark hit by a seeded " +
			"router-domain outage (1 s, restored) and a seeded substrate partition " +
			"(0.6 s, healed), recovery metrics per strategy",
		Kind:      KindMultiGroup,
		Mix:       "audio",
		NumHosts:  2000,
		NumGroups: 16,
		Topology:  Topology{Kind: "waxman", Nodes: 64},
		Membership: Membership{
			Kind:    "zipf",
			Skew:    1.0,
			MinSize: 8,
		},
		// Fault times sit inside the Quick() 3 s cap so the smoke run
		// still exercises every event kind.
		Faults: []FaultSpec{
			{Kind: "domain_outage", AtSec: 1.0, DurationSec: 1.0, Seeded: true},
			{Kind: "partition", AtSec: 2.2, Seeded: true},
			{Kind: "heal", AtSec: 2.8},
		},
		WindowSec: 0.25,
		Combos: []Combo{
			{Scheme: "sigma-rho-lambda", Tree: "dsct"},
			{Scheme: "sigma-rho-lambda", Strategy: "spt"},
		},
		Loads:       []float64{0.5, 0.8},
		DurationSec: 5,
	})
	Register(Scenario{
		Name: "epoch-churn-waxman-16",
		Description: "membership shocks under churn: the churn benchmark with a " +
			"30% mass leave and a staged 25% epoch transition on the two hottest groups",
		Kind:      KindMultiGroup,
		Mix:       "audio",
		NumHosts:  2000,
		NumGroups: 16,
		Topology:  Topology{Kind: "waxman", Nodes: 64},
		Membership: Membership{
			Kind:    "zipf",
			Skew:    1.0,
			MinSize: 8,
		},
		Churn: Churn{
			Kind:            "poisson",
			TurnoverPerSec:  0.01,
			MeanLifetimeSec: 2,
			StartSec:        0.5,
		},
		Faults: []FaultSpec{
			{Kind: "mass_leave", AtSec: 1.2, Group: 0, Fraction: 0.3},
			{Kind: "epoch_transition", AtSec: 2.0, DurationSec: 0.6, Group: 1, Fraction: 0.25},
		},
		WindowSec: 0.25,
		Combos: []Combo{
			{Scheme: "sigma-rho-lambda", Tree: "dsct"},
			{Scheme: "sigma-rho", Tree: "dsct"},
		},
		Loads:       []float64{0.5, 0.8},
		DurationSec: 5,
	})
	Register(Scenario{
		Name: "spt-waxman-16",
		Description: "strategy comparison: the scale benchmark shape with the paper's " +
			"DSCT against the delay-weighted shortest-path and capacity-aware greedy strategies",
		Kind:      KindMultiGroup,
		Mix:       "audio",
		NumHosts:  2000,
		NumGroups: 16,
		Topology:  Topology{Kind: "waxman", Nodes: 64},
		Membership: Membership{
			Kind:    "zipf",
			Skew:    1.0,
			MinSize: 8,
		},
		Combos: []Combo{
			{Scheme: "sigma-rho-lambda", Tree: "dsct"},
			{Scheme: "sigma-rho-lambda", Strategy: "spt"},
			{Scheme: "sigma-rho-lambda", Strategy: "greedy"},
		},
		Loads:       []float64{0.5, 0.8},
		DurationSec: 5,
	})
	Register(Scenario{
		Name: "reopt-churn-waxman-16",
		Description: "online re-optimization: the churn benchmark with periodic " +
			"measurement-driven tree rewires (1 s period, 5% hysteresis) repairing churn damage",
		Kind:      KindMultiGroup,
		Mix:       "audio",
		NumHosts:  2000,
		NumGroups: 16,
		Topology:  Topology{Kind: "waxman", Nodes: 64},
		Membership: Membership{
			Kind:    "zipf",
			Skew:    1.0,
			MinSize: 8,
		},
		Churn: Churn{
			Kind:            "poisson",
			TurnoverPerSec:  0.02,
			MeanLifetimeSec: 2,
			StartSec:        0.5,
		},
		Reopt: Reoptimize{
			EverySec:    1,
			MinImprove:  0.05,
			CooldownSec: 1,
			MaxMoves:    4,
		},
		WindowSec: 0.5,
		Combos: []Combo{
			{Scheme: "sigma-rho-lambda", Tree: "dsct"},
			{Scheme: "sigma-rho-lambda", Strategy: "spt"},
		},
		Loads:       []float64{0.5, 0.8},
		DurationSec: 5,
	})
	Register(Scenario{
		Name: "transit-stub-dsl-fibre",
		Description: "heterogeneous access: 800 hosts on a 52-router transit-stub " +
			"hierarchy, 8 uniform partial groups, DSL/cable/fibre uplink classes",
		Kind:      KindMultiGroup,
		Mix:       "hetero",
		NumHosts:  800,
		NumGroups: 8,
		Topology:  Topology{Kind: "transit-stub", Transits: 4, StubsPerTransit: 3, StubSize: 4},
		Membership: Membership{
			Kind:     "uniform",
			Fraction: 0.25,
			MinSize:  8,
		},
		Capacity: Capacity{
			Kind: "classes",
			Classes: []CapacityClass{
				{Mult: 0.5, Weight: 0.5},
				{Mult: 1.0, Weight: 0.35},
				{Mult: 4.0, Weight: 0.15},
			},
		},
		Combos: []Combo{
			{Scheme: "sigma-rho-lambda", Tree: "dsct"},
			{Scheme: "adaptive", Tree: "dsct"},
		},
		Loads:       []float64{0.35, 0.6},
		DurationSec: 8,
	})
	Register(Scenario{
		Name: "ring-sparse",
		Description: "degenerate underlay: 240 hosts on a 24-router ring, where " +
			"path diameter dominates and DSCT's locality pays most",
		Kind:     KindMultiGroup,
		Mix:      "audio",
		NumHosts: 240,
		Topology: Topology{Kind: "ring", Nodes: 24},
		Combos: []Combo{
			{Scheme: "sigma-rho-lambda", Tree: "dsct"},
			{Scheme: "sigma-rho-lambda", Tree: "nice"},
		},
		Loads:       []float64{0.5, 0.9},
		DurationSec: 8,
	})
	Register(Scenario{
		Name: "star-hub",
		Description: "degenerate underlay: 300 hosts on a 16-router star — the " +
			"underlay contributes nothing, isolating end-host capacity effects",
		Kind:      KindMultiGroup,
		Mix:       "video",
		NumHosts:  300,
		NumGroups: 4,
		Topology:  Topology{Kind: "star", Nodes: 16},
		Membership: Membership{
			Kind: "zipf",
			Skew: 0.8,
		},
		Combos: []Combo{
			{Scheme: "sigma-rho-lambda", Tree: "dsct"},
			{Scheme: "capacity-aware", Tree: "dsct"},
		},
		Loads:       []float64{0.5, 0.9},
		DurationSec: 6,
	})
	Register(Scenario{
		Name: "backbone-vbr",
		Description: "realism ablation: the paper's backbone driven by stochastic " +
			"VBR media models instead of envelope-extremal flows",
		Kind:     KindMultiGroup,
		Mix:      "hetero",
		Workload: "vbr",
		NumHosts: 300,
		Combos: []Combo{
			{Scheme: "sigma-rho", Tree: "dsct"},
			{Scheme: "sigma-rho-lambda", Tree: "dsct"},
			{Scheme: "adaptive", Tree: "dsct"},
		},
		Loads:       []float64{0.5, 0.9},
		DurationSec: 8,
	})
}
