// Package wdc (worst-case delay control) is the public API of this
// reproduction of Tu, Sreenan & Jia, "Worst-Case Delay Control in
// Multigroup Overlay Networks" (ICPP 2006 / IEEE TPDS 18(10), 2007).
//
// The package re-exports the three layers a downstream user needs:
//
//   - Theory: closed-form results — the (σ, ρ, λ) duty-cycle identities,
//     worst-case delay bounds (Lemma 1, Theorems 1–2, Remarks 1–2), the
//     rate threshold ρ* (Theorems 3–4), improvement ratios (Theorems 5–6),
//     the DSCT height bound (Lemma 2) and multicast bounds (Theorems 7–8).
//   - Engine: Run, deterministic given its seeds — a multi-group EMcast
//     network on the 19-router backbone by default (Simulation II), and,
//     over an OneHop config, one regulated general MUX feeding a sink
//     (Simulation I).
//   - Experiments: the declarative scenario layer (Scenarios,
//     ScenarioSweep). Every figure and table of the paper's evaluation is
//     a registered scenario — MustScenario("paper-fig4") … "paper-fig6c" —
//     beside named setups far beyond the paper's: pluggable underlays,
//     partial Zipf membership, heterogeneous uplinks. Overlay trees are
//     picked by strategy name (Config.Strategy, Strategies).
//
// Quick start:
//
//	res := wdc.Run(wdc.OneHop(wdc.Config{
//		Mix: wdc.MixVideo, Load: 0.8, Scheme: wdc.SchemeSRL, Seed: 1,
//	}))
//	fmt.Printf("worst-case delay: %.3fs\n", res.WDB)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package wdc

import (
	"repro/internal/calculus"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/overlay"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// Re-exported engine types.
type (
	// Scheme selects the traffic-control scheme at every end host.
	Scheme = core.Scheme
	// Workload selects extremal (worst-case-admissible) or VBR flows.
	Workload = core.Workload
	// Mix selects the paper's three traffic patterns.
	Mix = traffic.Mix
	// FlowSpec is a flow's rate and declared (σ, ρ) envelope.
	FlowSpec = core.FlowSpec
	// Config parameterises a run.
	Config = core.Config
	// Result reports a run.
	Result = core.Result
	// Options tunes an experiment sweep.
	Options = harness.Options
	// GroupSpec is one group's explicit member set and source.
	GroupSpec = core.GroupSpec
	// SeedOpt is an optional seed whose zero value means "unset".
	SeedOpt = core.SeedOpt
	// Scenario is a declarative experiment setup (see internal/scenario).
	Scenario = scenario.Scenario
	// ScenarioResult is a full scenario sweep's curves.
	ScenarioResult = harness.ScenarioResult
	// MembershipEvent is one dynamic membership change applied by the
	// session control plane (host joins or leaves a group mid-run).
	MembershipEvent = core.MembershipEvent
	// Churn is a scenario's declarative membership-churn model (Poisson
	// arrivals scaled by group size, exponential lifetimes).
	Churn = scenario.Churn
	// ReoptConfig parameterises the online tree re-optimization plane:
	// periodic measurement-driven rewires under hysteresis.
	ReoptConfig = core.ReoptConfig
	// Reoptimize is a scenario's declarative re-optimization spec.
	Reoptimize = scenario.Reoptimize
	// ScenarioCombo is one traffic-control series of a scenario (scheme
	// plus tree family or overlay strategy).
	ScenarioCombo = scenario.Combo
	// FaultSpec is one declarative correlated-failure injection in a
	// scenario: a router-domain outage, a backbone partition (with its
	// paired heal), a mass leave, or an epoch transition.
	FaultSpec = scenario.FaultSpec
	// FaultEvent is one compiled fault applied by the session control
	// plane at a fixed simulated time.
	FaultEvent = core.FaultEvent
	// FaultOutcome reports what one fault event did: hosts touched,
	// re-grafts, packets lost, and the measured recovery time.
	FaultOutcome = core.FaultOutcome
)

// Re-exported enum values.
const (
	SchemeCapacityAware = core.SchemeCapacityAware
	SchemeSigmaRho      = core.SchemeSigmaRho
	SchemeSRL           = core.SchemeSRL
	SchemeAdaptive      = core.SchemeAdaptive

	WorkloadExtremal = core.WorkloadExtremal
	WorkloadVBR      = core.WorkloadVBR

	MixAudio  = traffic.MixAudio
	MixVideo  = traffic.MixVideo
	MixHetero = traffic.MixHetero
)

// Engine.

// Run executes one multi-group EMcast run (Simulation II by default,
// Simulation I over an OneHop config). Set
// cfg.Shards > 1 to execute it as a sharded conservative-parallel
// simulation across that many engines — physics (deliveries, losses,
// worst-case delays) are identical to a one-shard run, so sharding
// is purely a wall-clock lever for big sessions on multi-core hosts.
func Run(cfg Config) Result { return core.Run(cfg) }

// OneHop reshapes cfg into Simulation I (Fig. 3/4): cfg's flows through
// their regulators into one general MUX whose output crosses a 1 ms link
// to the sink — two hosts, every group sourced at host 0, 36 s by default.
func OneHop(cfg Config) Config { return core.OneHop(cfg) }

// Strategies lists the registered overlay tree-construction strategies
// ("dsct", "nice", "spt", "greedy", ...), selectable via Config.Strategy,
// scenario specs, and wdcsim -strategy.
func Strategies() []string { return overlay.StrategyNames() }

// Experiments.

// QuickOptions returns reduced-scale sweep options that preserve curve
// shapes (120 hosts, 5 loads, short runs).
func QuickOptions(seed uint64) Options { return harness.Quick(seed) }

// Scenario layer.

// UseSeed wraps an explicit seed value (including 0) in a set SeedOpt.
func UseSeed(v uint64) SeedOpt { return core.UseSeed(v) }

// ScenarioSweep runs a declarative scenario over its load grid under the
// parallel sweep pool, one engine per (load, combo) cell.
func ScenarioSweep(sc Scenario, opts Options) (ScenarioResult, error) {
	return harness.ScenarioSweep(sc, opts)
}

// Scenarios lists the registered scenarios in name order (the paper's
// Fig. 4(a–c) and Fig. 6(a–c) are the entries "paper-fig4", "paper-fig4b",
// "paper-fig4c", "paper-fig6", "paper-fig6b", "paper-fig6c").
func Scenarios() []Scenario { return scenario.All() }

// LookupScenario resolves a registered scenario by name.
func LookupScenario(name string) (Scenario, error) { return scenario.Lookup(name) }

// MustScenario is LookupScenario for static names (benchmarks, examples).
func MustScenario(name string) Scenario { return scenario.MustLookup(name) }

// ParseScenario decodes and validates a scenario from JSON.
func ParseScenario(data []byte) (Scenario, error) { return scenario.Parse(data) }

// PaperLoads is the full 13-point load grid of the paper's figures.
func PaperLoads() []float64 { return append([]float64(nil), harness.PaperLoads...) }

// Theory exposes the paper's closed-form results.
type Theory struct{}

// Lambda returns λ = 1/(1−ρ) (Eq. 1; ρ normalised to capacity 1).
func (Theory) Lambda(rho float64) float64 { return calculus.Lambda(rho) }

// WorkPeriod returns W = σ/(1−ρ) seconds (normalised units).
func (Theory) WorkPeriod(sigma, rho float64) float64 { return calculus.WorkPeriod(sigma, rho) }

// Vacation returns V = σ/ρ seconds.
func (Theory) Vacation(sigma, rho float64) float64 { return calculus.Vacation(sigma, rho) }

// RhoStarHomog returns the Theorem 4 rate threshold for K homogeneous flows.
func (Theory) RhoStarHomog(k int) float64 { return calculus.RhoStarHomog(k) }

// RhoStarHetero returns the Theorem 3 rate threshold for K heterogeneous flows.
func (Theory) RhoStarHetero(k int) float64 { return calculus.RhoStarHetero(k) }

// DelayBoundSigmaRho returns Remark 1's MUX bound Σσᵢ/(1−Σρᵢ).
func (Theory) DelayBoundSigmaRho(sigmas, rhos []float64) float64 {
	return calculus.DgHetero(sigmas, rhos)
}

// DelayBoundSRL returns Theorem 1's MUX bound for (σ*, ρ, λ) regulation.
func (Theory) DelayBoundSRL(sigmas, rhos []float64) float64 {
	return calculus.DhatHetero(sigmas, rhos)
}

// DSCTHeightBound returns Lemma 2's height bound for an n-member group.
func (Theory) DSCTHeightBound(n, k int) int { return calculus.DSCTHeightBoundMax(n, k) }

// MulticastBoundSigmaRho returns Remark 2's tree bound.
func (Theory) MulticastBoundSigmaRho(height int, sigmas, rhos []float64) float64 {
	return calculus.MulticastDgHetero(height, sigmas, rhos)
}

// MulticastBoundSRL returns Theorem 7's tree bound.
func (Theory) MulticastBoundSRL(height int, sigmas, rhos []float64) float64 {
	return calculus.MulticastDhatHetero(height, sigmas, rhos)
}
