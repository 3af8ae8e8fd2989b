package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/calculus"
	"repro/internal/des"
	"repro/internal/mux"
	"repro/internal/overlay"
	"repro/internal/traffic"
)

func TestSchemeStrings(t *testing.T) {
	for _, s := range []Scheme{SchemeCapacityAware, SchemeSigmaRho, SchemeSRL, SchemeAdaptive, Scheme(42)} {
		if s.String() == "" {
			t.Fatal("empty scheme name")
		}
	}
	if SchemeCapacityAware.Regulated() || !SchemeSRL.Regulated() {
		t.Fatal("Regulated() misclassifies")
	}
}

func TestWorkloadBuilders(t *testing.T) {
	for _, w := range []Workload{WorkloadExtremal, WorkloadVBR} {
		srcs := w.BuildSourcesN(traffic.MixVideo, 3, 1, 1.02, 0.15)
		specs := w.BuildSpecsN(traffic.MixVideo, 3, 1, 1.02, 0.15, 5)
		if len(srcs) != 3 || len(specs) != 3 {
			t.Fatalf("%v: %d sources, %d specs", w, len(srcs), len(specs))
		}
		for i, sp := range specs {
			if sp.Rate != traffic.VideoRate {
				t.Fatalf("%v spec %d rate %v", w, i, sp.Rate)
			}
			if sp.Rho <= sp.Rate || sp.Sigma <= 0 {
				t.Fatalf("%v spec %d envelope (σ=%v, ρ=%v) invalid", w, i, sp.Sigma, sp.Rho)
			}
		}
	}
}

func TestExtremalSpecsAreExact(t *testing.T) {
	specs := Workload(WorkloadExtremal).BuildSpecsN(traffic.MixAudio, 3, 1, 1.02, 0.15, 0)
	wantSigma := 0.15*1.02*traffic.AudioRate + 1280
	if math.Abs(specs[0].Sigma-wantSigma) > 1e-9 {
		t.Fatalf("σ = %v, want %v", specs[0].Sigma, wantSigma)
	}
}

func TestMeasureSpecsPanicsOnBadMargin(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MeasureSpecsN(traffic.MixAudio, 3, 1, 0.9, 1)
}

func TestRegulatorBursts(t *testing.T) {
	specs := []FlowSpec{{Rate: 100, Sigma: 50, Rho: 110}, {Rate: 200, Sigma: 80, Rho: 220}}
	bursts := RegulatorBursts(specs, 1000)
	if bursts[0] != 50 || bursts[1] != 80 {
		t.Fatalf("bursts = %v", bursts)
	}
}

func TestRegulatorBurstsPanicsWhenOverCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RegulatorBursts([]FlowSpec{{Rate: 900, Sigma: 10, Rho: 1100}}, 1000)
}

func TestThresholdUtilizationMatchesCalculus(t *testing.T) {
	if got, want := ThresholdUtilization(3, true), calculus.ThresholdUtilizationHomog(3); got != want {
		t.Fatalf("homog threshold %v != %v", got, want)
	}
	if got, want := ThresholdUtilization(3, false), calculus.ThresholdUtilizationHetero(3); got != want {
		t.Fatalf("hetero threshold %v != %v", got, want)
	}
}

// --- Simulation I ---

func TestSingleHopDeterministic(t *testing.T) {
	cfg := OneHop(Config{Mix: traffic.MixVideo, Load: 0.8, Scheme: SchemeSRL,
		Duration: 13 * des.Second, Seed: 7})
	if err := SameRun(Run(cfg), Run(cfg), 0); err != nil {
		t.Fatalf("non-deterministic: %v", err)
	}
}

func TestSingleHopDeliversEverything(t *testing.T) {
	res := Run(OneHop(Config{Mix: traffic.MixAudio, Load: 0.5,
		Scheme: SchemeSigmaRho, Duration: 13 * des.Second, Seed: 1}))
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if res.WDB <= 0 || res.MeanDelay <= 0 {
		t.Fatalf("degenerate delays: %+v", res)
	}
	if res.WDB < res.MeanDelay {
		t.Fatal("WDB below mean")
	}
}

// Fig. 4 shape: the (σ,ρ,λ) curve is flat-ish and loses at low load, the
// (σ,ρ) curve rises and loses at high load, with the crossover in the
// paper's band.
func TestSingleHopFig4Shape(t *testing.T) {
	for _, mix := range []traffic.Mix{traffic.MixAudio, traffic.MixVideo} {
		low := 0.40
		high := 0.90
		srLow := Run(OneHop(Config{Mix: mix, Load: low, Scheme: SchemeSigmaRho, Seed: 1}))
		srlLow := Run(OneHop(Config{Mix: mix, Load: low, Scheme: SchemeSRL, Seed: 1}))
		srHigh := Run(OneHop(Config{Mix: mix, Load: high, Scheme: SchemeSigmaRho, Seed: 1}))
		srlHigh := Run(OneHop(Config{Mix: mix, Load: high, Scheme: SchemeSRL, Seed: 1}))
		if srLow.WDB >= srlLow.WDB {
			t.Fatalf("%v: (σ,ρ) should win at low load: %v vs %v", mix, srLow.WDB, srlLow.WDB)
		}
		if srHigh.WDB <= srlHigh.WDB {
			t.Fatalf("%v: (σ,ρ,λ) should win at high load: %v vs %v", mix, srHigh.WDB, srlHigh.WDB)
		}
		// Improvement at high load is a multiple, as in Fig. 4.
		if ratio := srHigh.WDB / srlHigh.WDB; ratio < 2 {
			t.Fatalf("%v: improvement ratio %v at load %v too small", mix, ratio, high)
		}
	}
}

// One video and two audio flows through one (σ, ρ, λ)-regulated MUX stay
// under Theorem 1's bound at every load. The regulators run σ*ᵢ, so every
// flow's duty cycle has the same period and the stagger tiles them; with
// each flow's own σᵢ the video period is the longer one, the cycles drift
// across each other, and at load 0.95 the WDB reaches four times the bound.
func TestSingleHopHeteroUnderTheorem1(t *testing.T) {
	for _, load := range []float64{0.65, 0.8, 0.95} {
		s := NewSession(OneHop(Config{Mix: traffic.MixHetero, Load: load,
			Scheme: SchemeSRL, Duration: 13 * des.Second, Seed: 1}))
		sigmas := make([]float64, len(s.sub.specs))
		rhos := make([]float64, len(s.sub.specs))
		for i, sp := range s.sub.specs {
			sigmas[i], rhos[i] = calculus.Normalize(sp.Sigma, sp.Rho, s.sub.conn)
		}
		bound := calculus.DhatHetero(sigmas, rhos)
		if res := s.Run(); res.WDB > bound {
			t.Errorf("load %.2f: WDB %.4f s over Theorem 1's %.4f s", load, res.WDB, bound)
		}
	}
}

func TestSingleHopAdaptiveTracksBestScheme(t *testing.T) {
	// The adaptive scheme should be within a small factor of the better
	// fixed scheme at both ends of the load range.
	for _, load := range []float64{0.4, 0.9} {
		sr := Run(OneHop(Config{Mix: traffic.MixVideo, Load: load, Scheme: SchemeSigmaRho, Seed: 1}))
		srl := Run(OneHop(Config{Mix: traffic.MixVideo, Load: load, Scheme: SchemeSRL, Seed: 1}))
		ad := Run(OneHop(Config{Mix: traffic.MixVideo, Load: load, Scheme: SchemeAdaptive, Seed: 1}))
		best := sr.WDB
		if srl.WDB < best {
			best = srl.WDB
		}
		// The first burst lands before the rate estimator has warmed up,
		// so the adaptive run pays one pre-switch worst case; allow for it.
		if ad.WDB > 3.5*best {
			t.Fatalf("load %v: adaptive %v far above best fixed %v", load, ad.WDB, best)
		}
	}
}

func TestSingleHopStaggerAblation(t *testing.T) {
	// Aligned duty cycles collide at the MUX: worst-case delay must not
	// improve versus staggered phases at high load. Above threshold the
	// adaptive controller engages the same stagger, so the ablation must
	// reach it too.
	for _, scheme := range []Scheme{SchemeSRL, SchemeAdaptive} {
		cfg := OneHop(Config{Mix: traffic.MixVideo, Load: 0.9, Scheme: scheme, Seed: 1})
		st := Run(cfg)
		cfg.StaggerAligned = true
		al := Run(cfg)
		if al.WDB < st.WDB*0.9 {
			t.Fatalf("%v: aligned %v beat staggered %v", scheme, al.WDB, st.WDB)
		}
		if al.WDB == st.WDB && al.MeanDelay == st.MeanDelay {
			t.Fatalf("%v: StaggerAligned changed nothing (WDB %v, mean %v)", scheme, st.WDB, st.MeanDelay)
		}
	}
}

func TestSingleHopValidation(t *testing.T) {
	for i, fn := range []func(){
		func() { Run(OneHop(Config{Mix: traffic.MixAudio, Load: 0, Scheme: SchemeSRL})) },
		func() { Run(OneHop(Config{Mix: traffic.MixAudio, Load: 1.2, Scheme: SchemeSRL})) },
		func() {
			Run(OneHop(Config{Mix: traffic.MixAudio, Load: 0.5, Scheme: SchemeSRL,
				Specs: []FlowSpec{{Rate: 1, Sigma: 1, Rho: 2}}}))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}

// What the hand-wired Simulation I engine refused or could not do, the
// one-host session does: the unregulated comparator, shard requests, and
// checkpoints, static and mid-switch adaptive.
func TestSingleHopRunsWhatTheSecondEngineRefused(t *testing.T) {
	base := Config{Mix: traffic.MixHetero, Load: 0.9, Duration: 9 * des.Second, Seed: 1}
	ca := base
	ca.Scheme = SchemeCapacityAware
	if r := Run(OneHop(ca)); r.Delivered == 0 || r.Layers != 2 {
		t.Fatalf("capacity-aware one-hop: %d deliveries, %d layers", r.Delivered, r.Layers)
	}
	for _, scheme := range []Scheme{SchemeSRL, SchemeAdaptive} {
		cfg := base
		cfg.Scheme = scheme
		cfg = OneHop(cfg)
		want := Run(cfg)
		if scheme == SchemeAdaptive && want.ModeSwitches == 0 {
			t.Fatal("adaptive fixture never switches: its checkpoints straddle nothing")
		}
		sharded := cfg
		sharded.Shards = 4 // one router domain: resolves to one shard
		if got := Run(sharded); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: Shards=4 changed the result", scheme)
		}
		// The adaptive run switches to (σ, ρ, λ) at its 1 s tick and holds
		// it until the sources stop: checkpoint before the switch, at its
		// instant, and well inside the episode.
		for _, at := range []des.Time{des.Seconds(0.3), des.Second, cfg.Duration / 2} {
			ck := NewSession(cfg)
			ck.Start()
			ck.RunTo(at)
			blob, err := ck.Snapshot()
			if err != nil {
				t.Fatalf("%v: snapshot at %v: %v", scheme, at, err)
			}
			restored, err := Restore(cfg, blob)
			if err != nil {
				t.Fatalf("%v: restore at %v: %v", scheme, at, err)
			}
			if got := restored.Finish(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: restored at %v diverged: %+v vs %+v", scheme, at, got, want)
			}
		}
	}
}

// --- Simulation II ---

func smallSession(scheme Scheme, strategy string, load float64) Config {
	return Config{
		NumHosts: 60,
		Mix:      traffic.MixAudio,
		Load:     load,
		Scheme:   scheme,
		Strategy: strategy,
		Duration: 13 * des.Second,
		Seed:     3,
	}
}

// sessionTrees returns the session's current group trees.
func sessionTrees(s *Session) []*overlay.Tree {
	out := make([]*overlay.Tree, len(s.sub.groups))
	for g, st := range s.sub.groups {
		out[g] = st.tree
	}
	return out
}

func TestSessionDeliversToAllMembers(t *testing.T) {
	s := NewSession(smallSession(SchemeSigmaRho, "dsct", 0.5))
	res := s.Run()
	if res.Delivered == 0 {
		t.Fatal("no deliveries")
	}
	// Every non-source member of every group should receive packets:
	// deliveries >= (members-1) * groups (at least one packet each).
	if res.Delivered < uint64((60-1)*3) {
		t.Fatalf("deliveries %d below one-per-member floor", res.Delivered)
	}
	for g, w := range res.PerGroupWDB {
		if w <= 0 {
			t.Fatalf("group %d WDB = %v", g, w)
		}
	}
}

func TestSessionFig6Shape(t *testing.T) {
	// The paper's primary Fig. 6 claim: above the threshold the (σ,ρ,λ)
	// scheme is best; below it the (σ,ρ) scheme beats it.
	low, high := 0.4, 0.9
	srLow := Run(smallSession(SchemeSigmaRho, "dsct", low))
	srlLow := Run(smallSession(SchemeSRL, "dsct", low))
	if srLow.WDB >= srlLow.WDB {
		t.Fatalf("(σ,ρ) should win at low load: %v vs %v", srLow.WDB, srlLow.WDB)
	}
	srHigh := Run(smallSession(SchemeSigmaRho, "dsct", high))
	srlHigh := Run(smallSession(SchemeSRL, "dsct", high))
	caHigh := Run(smallSession(SchemeCapacityAware, "dsct", high))
	if srlHigh.WDB >= srHigh.WDB {
		t.Fatalf("(σ,ρ,λ) should win at high load: %v vs %v", srlHigh.WDB, srHigh.WDB)
	}
	if srlHigh.WDB >= caHigh.WDB {
		t.Fatalf("(σ,ρ,λ) should beat capacity-aware at high load: %v vs %v",
			srlHigh.WDB, caHigh.WDB)
	}
}

func TestSessionTableShape(t *testing.T) {
	// Tables I–III: regulated tree layers constant in load; capacity-aware
	// layers grow.
	srlLow := Run(smallSession(SchemeSRL, "dsct", 0.4))
	srlHigh := Run(smallSession(SchemeSRL, "dsct", 0.9))
	if srlLow.Layers != srlHigh.Layers {
		t.Fatalf("regulated layers changed with load: %d vs %d", srlLow.Layers, srlHigh.Layers)
	}
	caLow := Run(smallSession(SchemeCapacityAware, "dsct", 0.4))
	caHigh := Run(smallSession(SchemeCapacityAware, "dsct", 0.9))
	if caHigh.Layers <= caLow.Layers {
		t.Fatalf("capacity-aware layers did not grow: %d vs %d", caLow.Layers, caHigh.Layers)
	}
}

func TestSessionDSCTBeatsNICE(t *testing.T) {
	d := Run(smallSession(SchemeSRL, "dsct", 0.8))
	n := Run(smallSession(SchemeSRL, "nice", 0.8))
	// DSCT's locality means its mean delay should not exceed NICE's
	// appreciably (WDB is bursty; compare means).
	if d.MeanDelay > n.MeanDelay*1.1 {
		t.Fatalf("DSCT mean %v above NICE mean %v", d.MeanDelay, n.MeanDelay)
	}
}

func TestSessionCapacityAwareSharesOneTree(t *testing.T) {
	s := NewSession(smallSession(SchemeCapacityAware, "dsct", 0.5))
	trees := sessionTrees(s)
	for g := 1; g < len(trees); g++ {
		if trees[g] != trees[0] {
			t.Fatal("capacity-aware groups must share one tree")
		}
	}
	if err := trees[0].Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionRegulatedUsesPerGroupTrees(t *testing.T) {
	s := NewSession(smallSession(SchemeSRL, "dsct", 0.5))
	trees := sessionTrees(s)
	if trees[0] == trees[1] {
		t.Fatal("regulated groups must have distinct trees")
	}
	for g, tr := range trees {
		if tr.Source != g {
			t.Fatalf("group %d rooted at %d", g, tr.Source)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
	}
}

func TestSessionAdaptiveRuns(t *testing.T) {
	res := Run(smallSession(SchemeAdaptive, "dsct", 0.9))
	if res.Delivered == 0 {
		t.Fatal("adaptive session delivered nothing")
	}
	if res.ModeSwitches == 0 {
		t.Fatal("adaptive session at high load never switched to (σ,ρ,λ)")
	}
}

func TestSessionLIFOvsFIFODiscipline(t *testing.T) {
	lifo := Run(smallSession(SchemeSigmaRho, "dsct", 0.9))
	cfg := smallSession(SchemeSigmaRho, "dsct", 0.9)
	cfg.Discipline = mux.FIFO
	fifo := Run(cfg)
	if fifo.WDB >= lifo.WDB {
		t.Fatalf("FIFO WDB %v should be below the LIFO adversary %v", fifo.WDB, lifo.WDB)
	}
}

func TestSessionVBRWorkload(t *testing.T) {
	cfg := smallSession(SchemeSigmaRho, "dsct", 0.5)
	cfg.Workload = WorkloadVBR
	cfg.EnvelopeHorizonSec = 13
	res := Run(cfg)
	if res.Delivered == 0 {
		t.Fatal("VBR workload delivered nothing")
	}
}

func TestSessionValidation(t *testing.T) {
	for i, fn := range []func(){
		func() { Run(Config{NumHosts: 1, Mix: traffic.MixAudio, Load: 0.5}) },
		func() { Run(Config{NumHosts: 10, Mix: traffic.MixAudio, Load: 0}) },
		func() { Run(Config{NumHosts: 10, Mix: traffic.MixAudio, Load: 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestSessionRejectsUnknownDiscipline: a discipline the MUX does not
// declare is refused at build time, not run as FIFO under the name
// "unknown".
func TestSessionRejectsUnknownDiscipline(t *testing.T) {
	cfg := smallSession(SchemeSRL, "dsct", 0.5)
	cfg.Discipline = 7
	defer func() {
		if p, _ := recover().(string); !strings.HasPrefix(p, "core: unknown MUX discipline") {
			t.Fatalf("panic %q, want core: unknown MUX discipline", p)
		}
	}()
	NewSession(cfg)
}

func TestSessionResultEchoesSpecs(t *testing.T) {
	res := Run(smallSession(SchemeSRL, "dsct", 0.5))
	if len(res.Specs) != 3 {
		t.Fatalf("specs len %d", len(res.Specs))
	}
	if res.ConnCapacity <= 0 || res.ThresholdUtil <= 0 {
		t.Fatalf("missing result metadata: %+v", res)
	}
}
