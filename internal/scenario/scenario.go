// Package scenario is the declarative experiment layer above the engines:
// a Scenario names a complete simulation setup — underlay topology,
// population, group count, membership model, workload, traffic-control
// combos, and capacity model — as plain data. Scenarios round-trip through
// JSON for the CLI, live in a registry of named setups (the paper's Fig. 4
// and Fig. 6 are two entries, not special cases), and compile into
// internal/core configs for the harness sweep drivers. The paper measured
// one point of this space (19-router backbone, 665 hosts, three full-
// membership groups); everything else the engine can simulate is a
// Scenario away.
package scenario

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"bytes"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/overlay"
	"repro/internal/topo"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// Kind selects the shape of the session a scenario compiles to. There is
// one engine; SessionConfig is where a kind becomes a core.Config.
type Kind string

// The two shapes.
const (
	// KindMultiGroup is Simulation II: a population of end hosts
	// forwarding group flows along overlay trees (the default).
	KindMultiGroup Kind = "multi-group"
	// KindSingleHop is Simulation I, K flows through one regulated MUX: the
	// core.OneHop preset — two hosts a fixed 1 ms apart, every group sourced
	// at host 0 with host 1 its only receiver, 36 s by default. The preset
	// overrides the population, topology and membership fields.
	KindSingleHop Kind = "single-hop"
)

// Combo is one traffic-control series of a scenario: a scheme plus (for
// multi-group scenarios) a tree family or overlay strategy.
type Combo struct {
	// Scheme: "capacity-aware", "sigma-rho", "sigma-rho-lambda", or
	// "adaptive".
	Scheme string `json:"scheme"`
	// Tree: "dsct" (default) or "nice" — the two paper tree families: the
	// overlay strategy of that name under a regulated scheme, the
	// location-aware or location-blind flat builder under capacity-aware.
	// Mutually exclusive with Strategy.
	Tree string `json:"tree,omitempty"`
	// Strategy names an overlay strategy from the registry ("dsct",
	// "nice", "spt", "greedy", ...), overriding both Tree and the
	// scenario-level Strategy for this series — so one scenario can
	// compare strategies side by side. Requires a regulated scheme.
	Strategy string `json:"strategy,omitempty"`
}

// String implements fmt.Stringer ("sigma-rho-lambda dsct",
// "sigma-rho-lambda spt").
func (c Combo) String() string {
	switch {
	case c.Strategy != "":
		return c.Scheme + " " + c.Strategy
	case c.Tree != "":
		return c.Scheme + " " + c.Tree
	default:
		return c.Scheme
	}
}

// Topology selects and parameterises the underlay generator family.
// Unset numeric fields take the family defaults in internal/topo.
type Topology struct {
	// Kind: "backbone19" (default), "waxman", "transit-stub", "ring",
	// "star", "wire" (one router, every host pair exactly 1 ms apart).
	Kind string `json:"kind,omitempty"`
	// Nodes is the router count (waxman/ring/star).
	Nodes int `json:"nodes,omitempty"`
	// Alpha/Beta are the Waxman edge-probability parameters.
	Alpha float64 `json:"alpha,omitempty"`
	Beta  float64 `json:"beta,omitempty"`
	// Transits/StubsPerTransit/StubSize shape the transit-stub hierarchy.
	Transits        int `json:"transits,omitempty"`
	StubsPerTransit int `json:"stubs_per_transit,omitempty"`
	StubSize        int `json:"stub_size,omitempty"`
}

// Generator compiles the topology spec into its generator. A count below
// its family's minimum is an error here, not a panic in the generator; 0
// takes the family default.
func (t Topology) Generator() (topo.Generator, error) {
	switch t.Kind {
	case "", "backbone19":
		return topo.Backbone19Generator{}, nil
	case "waxman":
		if err := atLeast("waxman nodes", t.Nodes, 2); err != nil {
			return nil, err
		}
		return topo.Waxman{N: t.Nodes, Alpha: t.Alpha, Beta: t.Beta}, nil
	case "transit-stub":
		if err := cmp.Or(atLeast("transit-stub transits", t.Transits, 2),
			atLeast("transit-stub stubs_per_transit", t.StubsPerTransit, 1),
			atLeast("transit-stub stub_size", t.StubSize, 1)); err != nil {
			return nil, err
		}
		return topo.TransitStub{Transits: t.Transits, StubsPerTransit: t.StubsPerTransit,
			StubSize: t.StubSize}, nil
	case "ring":
		if err := atLeast("ring nodes", t.Nodes, 3); err != nil {
			return nil, err
		}
		return topo.Ring{N: t.Nodes}, nil
	case "star":
		if err := atLeast("star nodes", t.Nodes, 2); err != nil {
			return nil, err
		}
		return topo.Star{N: t.Nodes}, nil
	case "wire":
		return topo.Wire{}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown topology kind %q", t.Kind)
	}
}

// atLeast rejects a topology count set below least; 0 is unset.
func atLeast(field string, n, least int) error {
	if n != 0 && n < least {
		return fmt.Errorf("scenario: topology %s is %d, below the minimum %d", field, n, least)
	}
	return nil
}

// Membership selects how hosts subscribe to groups.
type Membership struct {
	// Kind: "all" (default — the paper's every-host-joins-every-group),
	// "zipf" (group g's size ∝ (g+1)^−Skew — a few hot groups, a long
	// tail), or "uniform" (every group independently samples
	// Fraction × NumHosts members).
	Kind string `json:"kind,omitempty"`
	// Skew is the Zipf exponent. Default 1.0.
	Skew float64 `json:"skew,omitempty"`
	// Fraction is the uniform-model group size as a share of the
	// population. Default 0.25.
	Fraction float64 `json:"fraction,omitempty"`
	// MinSize floors every group's member count. Default 4.
	MinSize int `json:"min_size,omitempty"`
}

// Full reports whether the model is the paper's full membership.
func (m Membership) Full() bool { return m.Kind == "" || m.Kind == "all" }

// Capacity selects the host uplink-capacity model.
type Capacity struct {
	// Kind: "uniform" (default — every host at the base C) or "classes".
	Kind string `json:"kind,omitempty"`
	// Classes are the weighted capacity tiers of the "classes" model.
	Classes []CapacityClass `json:"classes,omitempty"`
}

// CapacityClass mirrors topo.UplinkClass in JSON-friendly form.
type CapacityClass struct {
	Mult   float64 `json:"mult"`
	Weight float64 `json:"weight"`
}

// Scenario is one named, self-contained experiment setup.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Kind defaults to multi-group.
	Kind Kind `json:"kind,omitempty"`
	// Mix: "audio" (default), "video", "hetero".
	Mix string `json:"mix,omitempty"`
	// Workload: "extremal" (default) or "vbr".
	Workload string `json:"workload,omitempty"`
	// NumHosts is the population (multi-group). Default 665.
	NumHosts int `json:"num_hosts,omitempty"`
	// NumGroups is the group count. Default 3 (one per mix flow).
	NumGroups int `json:"num_groups,omitempty"`
	// Topology, Membership, Capacity select the structural models.
	Topology   Topology   `json:"topology,omitempty"`
	Membership Membership `json:"membership,omitempty"`
	Capacity   Capacity   `json:"capacity,omitempty"`
	// Strategy names the default overlay strategy for every combo that
	// does not pick its own (via Combo.Strategy or the legacy Combo.Tree).
	// Capacity-aware combos keep their own flat shared-tree construction
	// and ignore it.
	Strategy string `json:"strategy,omitempty"`
	// Churn turns on dynamic membership (see churn.go). Requires partial
	// membership and regulated combos.
	Churn Churn `json:"churn,omitempty"`
	// Reopt turns on measurement-driven online tree re-optimization:
	// periodic passes that rewire each group's tree from measured
	// per-member delays under hysteresis. Requires regulated
	// combos and a multi-group scenario.
	Reopt Reoptimize `json:"reoptimize,omitempty"`
	// Faults injects correlated failures (see faults.go): router-domain
	// outages, substrate partitions, and mass membership shocks. Requires
	// regulated combos and a multi-group scenario; the mass kinds need
	// partial membership.
	Faults []FaultSpec `json:"faults,omitempty"`
	// WindowSec sets the windowed max-delay bucket width in seconds for
	// transient measurement; 0 defaults to 1 s when churn is enabled and
	// off otherwise.
	WindowSec float64 `json:"window_sec,omitempty"`
	// Combos are the series to sweep. Required.
	Combos []Combo `json:"combos"`
	// Loads overrides the sweep's load grid (else the caller's grid).
	Loads []float64 `json:"loads,omitempty"`
	// DurationSec overrides the per-run simulated seconds (else the
	// caller's duration).
	DurationSec float64 `json:"duration_sec,omitempty"`
	// ClusterK is the DSCT/NICE cluster parameter. Default 3.
	ClusterK int `json:"cluster_k,omitempty"`
	// CapacityFactor is C_out/C for the capacity-aware scheme.
	CapacityFactor float64 `json:"capacity_factor,omitempty"`
}

// GroupCount resolves the scenario's number of groups.
func (s Scenario) GroupCount() int {
	if s.NumGroups > 0 {
		return s.NumGroups
	}
	return 3
}

// Hosts resolves the population.
func (s Scenario) Hosts() int {
	if s.NumHosts > 0 {
		return s.NumHosts
	}
	return 665
}

// ParseMix resolves the mix name.
func (s Scenario) ParseMix() (traffic.Mix, error) {
	switch s.Mix {
	case "", "audio":
		return traffic.MixAudio, nil
	case "video":
		return traffic.MixVideo, nil
	case "hetero":
		return traffic.MixHetero, nil
	default:
		return 0, fmt.Errorf("scenario: unknown mix %q", s.Mix)
	}
}

// ParseWorkload resolves the workload name.
func (s Scenario) ParseWorkload() (core.Workload, error) {
	switch s.Workload {
	case "", "extremal":
		return core.WorkloadExtremal, nil
	case "vbr":
		return core.WorkloadVBR, nil
	default:
		return 0, fmt.Errorf("scenario: unknown workload %q", s.Workload)
	}
}

// ParseScheme resolves a combo's scheme name.
func ParseScheme(name string) (core.Scheme, error) {
	switch name {
	case "capacity-aware":
		return core.SchemeCapacityAware, nil
	case "sigma-rho":
		return core.SchemeSigmaRho, nil
	case "sigma-rho-lambda":
		return core.SchemeSRL, nil
	case "adaptive":
		return core.SchemeAdaptive, nil
	default:
		return 0, fmt.Errorf("scenario: unknown scheme %q", name)
	}
}

// StrategyFor resolves the overlay strategy name in force for one combo:
// the combo's own Strategy, else its legacy Tree name, else the
// scenario-level default, else "" (core's dsct default). Capacity-aware
// combos always resolve to "" — they build their own shared flat tree.
func (s Scenario) StrategyFor(c Combo) string {
	if scheme, err := ParseScheme(c.Scheme); err == nil && scheme == core.SchemeCapacityAware {
		return ""
	}
	switch {
	case c.Strategy != "":
		return c.Strategy
	case c.Tree != "":
		return c.Tree
	default:
		return s.Strategy
	}
}

// Validate checks the scenario compiles: names resolve, dimensions are
// positive, the load grid is inside (0, 1), and the control planes are only
// asked of shapes that can serve them.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	switch s.Kind {
	case "", KindMultiGroup, KindSingleHop:
	default:
		return fmt.Errorf("scenario %s: unknown kind %q", s.Name, s.Kind)
	}
	if _, err := s.ParseMix(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if _, err := s.ParseWorkload(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if len(s.Combos) == 0 {
		return fmt.Errorf("scenario %s: needs at least one combo", s.Name)
	}
	for _, c := range s.Combos {
		scheme, err := ParseScheme(c.Scheme)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		if c.Tree != "" && c.Tree != "dsct" && c.Tree != "nice" {
			return fmt.Errorf("scenario %s: unknown tree %q", s.Name, c.Tree)
		}
		if c.Strategy != "" {
			if c.Tree != "" {
				return fmt.Errorf("scenario %s: combo %q sets both tree and strategy", s.Name, c.String())
			}
			if scheme == core.SchemeCapacityAware {
				return fmt.Errorf("scenario %s: capacity-aware combos build their own shared tree; strategy %q does not apply", s.Name, c.Strategy)
			}
			if _, err := overlay.LookupStrategy(c.Strategy); err != nil {
				return fmt.Errorf("scenario %s: %w", s.Name, err)
			}
		}
	}
	if s.Strategy != "" {
		if _, err := overlay.LookupStrategy(s.Strategy); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	if _, err := s.Topology.Generator(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	switch s.Membership.Kind {
	case "", "all", "zipf", "uniform":
	default:
		return fmt.Errorf("scenario %s: unknown membership kind %q", s.Name, s.Membership.Kind)
	}
	switch s.Capacity.Kind {
	case "", "uniform":
		if len(s.Capacity.Classes) > 0 {
			return fmt.Errorf("scenario %s: uniform capacity lists classes", s.Name)
		}
	case "classes":
		if len(s.Capacity.Classes) == 0 {
			return fmt.Errorf("scenario %s: classes capacity model without classes", s.Name)
		}
		for _, c := range s.Capacity.Classes {
			if c.Mult <= 0 || c.Weight <= 0 {
				return fmt.Errorf("scenario %s: capacity class mult/weight must be positive", s.Name)
			}
		}
	default:
		return fmt.Errorf("scenario %s: unknown capacity kind %q", s.Name, s.Capacity.Kind)
	}
	if s.NumHosts < 0 || s.NumGroups < 0 {
		return fmt.Errorf("scenario %s: negative dimensions", s.Name)
	}
	if err := CheckSeconds(s.DurationSec); err != nil {
		return fmt.Errorf("scenario %s: duration_sec %w", s.Name, err)
	}
	if err := CheckSeconds(s.WindowSec); err != nil {
		return fmt.Errorf("scenario %s: window_sec %w", s.Name, err)
	}
	if err := s.Churn.validate(s.Name); err != nil {
		return err
	}
	if s.Kind == KindSingleHop && (s.Churn.Enabled() || s.Reopt.Enabled() || len(s.Faults) > 0) {
		return fmt.Errorf("scenario %s: churn, faults and re-optimization need a multi-group scenario (the single-hop shape is one fixed two-host tree: no one to join, fail or re-parent)", s.Name)
	}
	if s.Churn.Enabled() {
		if s.Membership.Full() {
			return fmt.Errorf("scenario %s: churn needs partial membership (with full membership there is no host left to join)", s.Name)
		}
		for _, c := range s.Combos {
			if scheme, _ := ParseScheme(c.Scheme); scheme == core.SchemeCapacityAware {
				return fmt.Errorf("scenario %s: churn requires regulated combos (capacity-aware trees cannot express membership drift)", s.Name)
			}
		}
	}
	if err := s.Reopt.validate(s.Name); err != nil {
		return err
	}
	if s.Reopt.Enabled() {
		for _, c := range s.Combos {
			if scheme, _ := ParseScheme(c.Scheme); scheme == core.SchemeCapacityAware {
				return fmt.Errorf("scenario %s: re-optimization requires regulated combos (capacity-aware trees cannot be rewired)", s.Name)
			}
		}
	}
	if len(s.Faults) > 0 {
		if err := validateFaultSpecs(s.Name, s.Faults, s.GroupCount()); err != nil {
			return err
		}
		for _, c := range s.Combos {
			if scheme, _ := ParseScheme(c.Scheme); scheme == core.SchemeCapacityAware {
				return fmt.Errorf("scenario %s: fault injection requires regulated combos (capacity-aware trees cannot be repaired)", s.Name)
			}
		}
		if s.Membership.Full() {
			for _, f := range s.Faults {
				if f.Kind == "mass_leave" || f.Kind == "epoch_transition" {
					return fmt.Errorf("scenario %s: fault %q needs partial membership (with full membership there is no cohort to rotate)", s.Name, f.Kind)
				}
			}
		}
	}
	if s.Hosts() < 2 {
		return fmt.Errorf("scenario %s: needs at least two hosts", s.Name)
	}
	for _, l := range s.Loads {
		if l <= 0 || l >= 1 {
			return fmt.Errorf("scenario %s: load %v outside (0,1)", s.Name, l)
		}
	}
	return nil
}

// CheckSeconds accepts 0 (the default) and any span of simulated seconds
// the nanosecond clock can hold: at least 1 ns, and below math.MaxInt64 ns.
// NaN, infinities, negatives and spans that would round to 0 ns or
// overflow the clock are errors.
func CheckSeconds(sec float64) error {
	ns := sec * float64(des.Second)
	switch {
	case sec == 0:
		return nil
	case math.IsNaN(sec) || sec < 0:
		return fmt.Errorf("%v must be a non-negative number of seconds", sec)
	case ns < 1:
		return fmt.Errorf("%v s is below the clock's 1 ns resolution", sec)
	case ns >= math.MaxInt64: // float64(math.MaxInt64) rounds up to 2⁶³
		return fmt.Errorf("%v s is past the clock's %.4g s range", sec, float64(math.MaxInt64)/float64(des.Second))
	}
	return nil
}

// Groups materialises the membership model for the given structural seed:
// nil for full membership (core's implicit paper model), else one
// GroupSpec per group with a deterministically sampled member set and a
// random member as source. Group g's sample stream derives from
// xrand.DeriveSeed(seed, g), so membership is a pure function of
// (scenario, seed) — independent of load, combo, and execution order.
func (s Scenario) Groups(seed uint64) []core.GroupSpec {
	if s.Membership.Full() {
		return nil
	}
	n, k := s.Hosts(), s.GroupCount()
	minSize := s.Membership.MinSize
	if minSize == 0 {
		minSize = 4
	}
	if minSize > n {
		minSize = n
	}
	sizes := make([]int, k)
	switch s.Membership.Kind {
	case "zipf":
		skew := s.Membership.Skew
		if skew == 0 {
			skew = 1.0
		}
		norm := 0.0
		for g := 0; g < k; g++ {
			norm += math.Pow(float64(g+1), -skew)
		}
		for g := 0; g < k; g++ {
			sizes[g] = int(math.Round(float64(n) * math.Pow(float64(g+1), -skew) / norm))
		}
	case "uniform":
		f := s.Membership.Fraction
		if f == 0 {
			f = 0.25
		}
		for g := 0; g < k; g++ {
			sizes[g] = int(math.Round(f * float64(n)))
		}
	}
	// Each group samples from its own stream into its own slot, so the
	// groups fan out over workers; a worker draws every permutation in one
	// int32 buffer (512 × Perm(100000) was 410 MB of a 100k-host repetition).
	groups := make([]core.GroupSpec, k)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), k); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			perm := make([]int32, n)
			for g := int(next.Add(1)) - 1; g < k; g = int(next.Add(1)) - 1 {
				size := min(max(sizes[g], minSize), n)
				for i := range perm {
					perm[i] = int32(i)
				}
				xrand.New(xrand.DeriveSeed(seed, g) ^ 0xa0761d6478bd642f).ShuffleInt32s(perm)
				members := make([]int, size)
				for i, m := range perm[:size] {
					members[i] = int(m)
				}
				source := members[0]
				slices.Sort(members)
				groups[g] = core.GroupSpec{Source: source, Members: members}
			}
		}()
	}
	wg.Wait()
	return groups
}

// UplinkClasses compiles the capacity model.
func (s Scenario) UplinkClasses() []topo.UplinkClass {
	if len(s.Capacity.Classes) == 0 {
		return nil
	}
	out := make([]topo.UplinkClass, len(s.Capacity.Classes))
	for i, c := range s.Capacity.Classes {
		out[i] = topo.UplinkClass{Mult: c.Mult, Weight: c.Weight}
	}
	return out
}

// SessionConfig compiles one (combo, load) cell of a scenario into a core
// config, and is the one place Kind is resolved. The caller supplies the
// structural seed and the per-load traffic seed (sweep drivers derive the
// latter with xrand.DeriveSeed), the simulated duration (0 selects the
// scenario's DurationSec, else the kind's default horizon — 15 s, or
// core.OneHop's 36 s), the pre-built shared specs (nil to let the session
// measure its own) and the materialised membership (groups — sweep drivers
// call s.Groups(seed) once and share the result across every cell; nil
// materialises it here).
func (s Scenario) SessionConfig(combo Combo, load float64, seed uint64,
	trafficSeed core.SeedOpt, duration des.Duration, specs []core.FlowSpec,
	groups []core.GroupSpec) (core.Config, error) {
	oneHop := s.Kind == KindSingleHop
	if duration == 0 {
		duration = des.Seconds(s.DurationSec)
	}
	if duration == 0 && !oneHop {
		duration = 15 * des.Second
	}
	mix, err := s.ParseMix()
	if err != nil {
		return core.Config{}, err
	}
	workload, err := s.ParseWorkload()
	if err != nil {
		return core.Config{}, err
	}
	scheme, err := ParseScheme(combo.Scheme)
	if err != nil {
		return core.Config{}, err
	}
	gen, err := s.Topology.Generator()
	if err != nil {
		return core.Config{}, err
	}
	// The slowest uplink class must still fit every flow envelope, or the
	// session will (rightly) panic at build time; surface it as a config
	// error here, where the load is known.
	if classes := s.UplinkClasses(); len(classes) > 0 {
		k := s.GroupCount()
		conn := mix.TotalRateN(k) / load
		minMult := classes[0].Mult
		for _, c := range classes[1:] {
			if c.Mult < minMult {
				minMult = c.Mult
			}
		}
		maxRate := float64(traffic.AudioRate)
		for i := 0; i < k; i++ {
			if mix.VideoFlow(i) {
				maxRate = traffic.VideoRate
				break
			}
		}
		if core.DefaultEnvelopeMargin*maxRate >= minMult*conn {
			return core.Config{}, fmt.Errorf(
				"scenario %s: at load %.2f the slowest uplink class (mult %.2g) offers %.0f bps, at or below the largest flow envelope rate %.0f bps",
				s.Name, load, minMult, minMult*conn, core.DefaultEnvelopeMargin*maxRate)
		}
	}
	if groups == nil {
		groups = s.Groups(seed)
	}
	// Churn compiles to a concrete membership event schedule: a pure
	// function of (scenario, seed, duration) on dedicated streams, so the
	// same cell always sees the same churn regardless of load, combo, or
	// sweep parallelism — and a churn-free scenario compiles to the exact
	// static config it always did.
	events := s.ChurnEvents(seed, duration, groups)
	// Faults compile on their own dedicated stream under the same purity
	// contract; a fault-free scenario compiles to the exact config it
	// always did.
	faults, err := s.FaultEvents(seed, duration, groups)
	if err != nil {
		return core.Config{}, err
	}
	// A capacity-aware combo's tree name picks its flat builder (dsct:
	// location-aware, nice: location-blind); StrategyFor resolves it to ""
	// because no registry strategy applies.
	strategy := s.StrategyFor(combo)
	if scheme == core.SchemeCapacityAware {
		strategy = combo.Tree
	}
	window := s.WindowSec
	if window == 0 && (s.Churn.Enabled() || len(faults) > 0) {
		window = 1
	}
	cfg := core.Config{
		NumHosts:       s.Hosts(),
		Mix:            mix,
		Load:           load,
		Scheme:         scheme,
		Strategy:       strategy,
		Duration:       duration,
		Seed:           seed,
		TrafficSeed:    trafficSeed,
		Workload:       workload,
		ClusterK:       s.ClusterK,
		CapacityFactor: s.CapacityFactor,
		Specs:          specs,
		Topology:       gen,
		Groups:         groups,
		NumGroups:      s.GroupCount(),
		UplinkClasses:  s.UplinkClasses(),
		Events:         events,
		Faults:         faults,
		Reopt:          s.Reopt.compile(),
		WindowSec:      window,
	}
	if oneHop {
		cfg = core.OneHop(cfg)
	}
	return cfg, nil
}

// Quick returns a reduced-scale copy for tests, smoke targets, and
// examples: capped population, two loads, short runs. Group count and
// structural models are preserved so the reduced run still exercises the
// scenario's shape.
func (s Scenario) Quick() Scenario {
	if s.NumHosts == 0 || s.NumHosts > 150 {
		s.NumHosts = 150
	}
	switch len(s.Loads) {
	case 0:
		s.Loads = []float64{0.5, 0.9}
	case 1, 2:
	default:
		s.Loads = []float64{s.Loads[0], s.Loads[len(s.Loads)-1]}
	}
	if s.DurationSec == 0 || s.DurationSec > 3 {
		s.DurationSec = 3
	}
	return s
}

// Parse decodes and validates a scenario from JSON. Decoding is strict:
// a key the spec does not define (a misspelt "stratagy", a field from a
// newer version) is an error, not a silently ignored no-op that runs the
// default configuration.
func Parse(data []byte) (Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("scenario: %w", err)
	}
	if dec.More() {
		// json.Unmarshal rejected trailing data; keep that strictness
		// through the Decoder switch (a concatenated second spec or merge
		// artifact must not be silently dropped).
		return Scenario{}, fmt.Errorf("scenario: trailing data after the spec")
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// JSON encodes the scenario (indented, stable field order).
func (s Scenario) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
