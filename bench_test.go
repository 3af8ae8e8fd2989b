package wdc

// Benchmark harness: the non-sweep paper artefacts, the ablation benches
// DESIGN.md calls out, and the scale benches. The paper's figure and table
// sweeps are timed from outside by the repository benchmark (benchmark/,
// workload fig6-sweep); see EXPERIMENTS.md for the full-scale record.
//
// Run everything with:
//
//	go test -bench=. -benchmem
import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/harness"
	"repro/internal/mux"
	"repro/internal/traffic"
)

// BenchmarkFig2Trace regenerates the Fig. 2 regulator operation trace.
func BenchmarkFig2Trace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.Fig2Trace(10_000, 250_000, 1_000_000, des.Seconds(1), 256)
	}
}

// BenchmarkRhoStarTable regenerates the Theorem 3/4 threshold table.
func BenchmarkRhoStarTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.RhoStarTable(100)
	}
}

// BenchmarkImprovementTable regenerates the Theorem 5/6 ratio table.
func BenchmarkImprovementTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.ImprovementTable(3, nil)
	}
}

// --- Ablation benches (DESIGN.md §6) ---

// BenchmarkAblationStagger compares the staggered duty cycle against
// aligned phases at high load: the metric of interest is wdb-aligned /
// wdb-staggered (>1 means staggering pays).
func BenchmarkAblationStagger(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		cfg := OneHop(Config{Mix: MixVideo, Load: 0.9, Scheme: SchemeSRL,
			Duration: 13 * des.Second, Seed: uint64(i + 1)})
		st := Run(cfg)
		cfg.StaggerAligned = true
		al := Run(cfg)
		ratio = al.WDB / st.WDB
	}
	b.ReportMetric(ratio, "aligned/staggered")
}

// BenchmarkAblationCapacityFactor sweeps C_out/C for the capacity-aware
// comparator, reporting the layer count at the paper's heaviest load.
func BenchmarkAblationCapacityFactor(b *testing.B) {
	var layers float64
	for i := 0; i < b.N; i++ {
		for _, factor := range []float64{1.5, 2.0, 3.0} {
			r := Run(Config{NumHosts: 300, Mix: MixAudio, Load: 0.95,
				Scheme: SchemeCapacityAware, CapacityFactor: factor,
				Duration: des.Second, Seed: uint64(i + 1)})
			layers = float64(r.Layers)
		}
	}
	b.ReportMetric(layers, "layers@factor3")
}

// BenchmarkAblationClusterK sweeps the DSCT cluster parameter k.
func BenchmarkAblationClusterK(b *testing.B) {
	var layers float64
	for i := 0; i < b.N; i++ {
		for _, k := range []int{2, 3, 4, 5} {
			r := core.Run(core.Config{NumHosts: 300, Mix: traffic.MixAudio,
				Load: 0.5, Scheme: core.SchemeSRL, ClusterK: k,
				Duration: des.Millisecond, Seed: uint64(i + 1)})
			layers = float64(r.Layers)
		}
	}
	b.ReportMetric(layers, "layers@k5")
}

// BenchmarkAblationRateEstimator compares the adaptive controller on
// WindowRate (default) against runs pinned to each fixed scheme,
// exercising the estimator-driven switching path end to end.
func BenchmarkAblationRateEstimator(b *testing.B) {
	var ad float64
	for i := 0; i < b.N; i++ {
		ad = Run(OneHop(Config{Mix: MixVideo, Load: 0.9,
			Scheme: SchemeAdaptive, Duration: 13 * des.Second, Seed: uint64(i + 1)})).WDB
	}
	b.ReportMetric(ad, "adaptive-wdb")
}

// BenchmarkAblationDiscipline compares the general-MUX adversary (LIFO)
// against FIFO service for the (σ,ρ) scheme at high load — the gap is the
// busy-period exposure the paper's bounds describe.
func BenchmarkAblationDiscipline(b *testing.B) {
	var lifo, fifo float64
	for i := 0; i < b.N; i++ {
		cfg := OneHop(Config{Mix: MixVideo, Load: 0.9, Scheme: SchemeSigmaRho,
			Duration: 13 * des.Second, Seed: uint64(i + 1)})
		lifo = Run(cfg).WDB
		cfg.Discipline = mux.FIFO
		fifo = Run(cfg).WDB
	}
	b.ReportMetric(lifo/fifo, "lifo/fifo")
}

// BenchmarkAblationWorkload compares extremal against stochastic VBR
// drive at high load — quantifying how far typical-case traffic sits from
// the worst case.
func BenchmarkAblationWorkload(b *testing.B) {
	var ext, vbr float64
	for i := 0; i < b.N; i++ {
		cfg := OneHop(Config{Mix: MixVideo, Load: 0.9, Scheme: SchemeSigmaRho,
			Duration: 13 * des.Second, Seed: uint64(i + 1), EnvelopeHorizonSec: 13})
		ext = Run(cfg).WDB
		cfg.Workload = WorkloadVBR
		vbr = Run(cfg).WDB
	}
	b.ReportMetric(ext/vbr, "extremal/vbr")
}

// --- End-to-end engine benches ---

// BenchmarkScenarioScale is the scale benchmark: the registered
// waxman-zipf-16 scenario — 2000 hosts on a 64-router Waxman underlay,
// 16 overlapping groups with Zipf-skewed membership — at one heavy load
// under both regulators, full population, reduced duration. This is the
// partial-membership counterpart of BenchmarkSessionRun: the same engine
// at 33× the host-group scale of the paper's setup.
func BenchmarkScenarioScale(b *testing.B) {
	sc := MustScenario("waxman-zipf-16")
	var delivered uint64
	for i := 0; i < b.N; i++ {
		r, err := ScenarioSweep(sc, Options{Seed: uint64(i + 1),
			Loads: []float64{0.8}, Duration: 2 * des.Second})
		if err != nil {
			b.Fatal(err)
		}
		delivered = r.Delivered
	}
	b.ReportMetric(float64(delivered), "deliveries")
}

// BenchmarkChurnScale is the dynamic-membership counterpart of
// BenchmarkScenarioScale: the registered churn-waxman-16 scenario — the
// same 2000-host, 16-Zipf-group Waxman population with ~10% Poisson
// membership turnover — at one heavy load, exercising graft, prune,
// subtree repair, regulator detach/attach, and re-staggering on the hot
// path alongside regular forwarding.
func BenchmarkChurnScale(b *testing.B) {
	sc := MustScenario("churn-waxman-16")
	var delivered, lost uint64
	var joins int
	for i := 0; i < b.N; i++ {
		r, err := ScenarioSweep(sc, Options{Seed: uint64(i + 1),
			Loads: []float64{0.8}, Duration: 2 * des.Second})
		if err != nil {
			b.Fatal(err)
		}
		delivered, lost, joins = r.Delivered, r.Lost, r.Joins
	}
	b.ReportMetric(float64(delivered), "deliveries")
	b.ReportMetric(float64(lost), "lost")
	b.ReportMetric(float64(joins), "joins")
}

// BenchmarkStrategyScale runs one waxman-zipf-16 cell per registered
// overlay strategy (2000 hosts, 16 Zipf groups, load 0.8, (σ, ρ, λ))
// and reports each strategy's worst-case delay alongside its wall
// clock — the engine-level strategy comparison EXPERIMENTS.md records.
func BenchmarkStrategyScale(b *testing.B) {
	sc := MustScenario("waxman-zipf-16")
	for _, strat := range Strategies() {
		b.Run("strategy="+strat, func(b *testing.B) {
			var wdb float64
			for i := 0; i < b.N; i++ {
				r, err := ScenarioSweep(sc, Options{Seed: uint64(i + 1), Strategy: strat,
					Loads: []float64{0.8}, Duration: 2 * des.Second})
				if err != nil {
					b.Fatal(err)
				}
				wdb = r.Curves[0].WDB.Y[0]
			}
			b.ReportMetric(wdb, "wdb-s")
		})
	}
}

// BenchmarkReoptChurnScale is BenchmarkChurnScale with the online
// re-optimization plane running: the registered reopt-churn-waxman-16
// scenario's dsct cell at load 0.8 — measurement accumulation on every
// delivery plus periodic rewire passes on top of the churn control
// plane. The delta against BenchmarkChurnScale is the plane's total
// overhead; reopts/moves report how much rewiring actually happened.
func BenchmarkReoptChurnScale(b *testing.B) {
	sc := MustScenario("reopt-churn-waxman-16")
	sc.Combos = sc.Combos[:1]
	var r ScenarioResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = ScenarioSweep(sc, Options{Seed: uint64(i + 1),
			Loads: []float64{0.8}, Duration: 2 * des.Second})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.Delivered), "deliveries")
	b.ReportMetric(float64(r.Lost), "lost")
	b.ReportMetric(float64(r.Reopts), "reopts")
	b.ReportMetric(float64(r.ReoptMoves), "moves")
}

// BenchmarkShardScale measures the sharded conservative-parallel engine
// on the headroom workload: one waxman-zipf-64 cell (10k hosts, 64 Zipf
// groups, 128-router Waxman) at load 0.8, reduced duration, across shard
// counts. shards=1 is the one-engine baseline, so the sub-benchmark
// ratios are the intra-run speedup; delivery totals are
// identical across shard counts by the determinism contract. Build time
// is excluded — the benchmark isolates Run, the part sharding targets.
func BenchmarkShardScale(b *testing.B) {
	sc := MustScenario("waxman-zipf-64")
	cfg, err := sc.SessionConfig(sc.Combos[0], 0.8, 1, UseSeed(2), 2*des.Second, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var delivered uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg.Shards = shards
				s := core.NewSession(cfg)
				b.StartTimer()
				r := s.Run()
				delivered = r.Delivered
			}
			b.ReportMetric(float64(delivered), "deliveries")
		})
	}
}

// BenchmarkShardScaleChurn is BenchmarkShardScale on the dynamic-
// membership workload (churn-waxman-16 at full population), exercising
// the quiesce-barrier control-plane path under sharding.
func BenchmarkShardScaleChurn(b *testing.B) {
	sc := MustScenario("churn-waxman-16")
	groups := sc.Groups(1)
	cfg, err := sc.SessionConfig(sc.Combos[0], 0.8, 1, UseSeed(2), 2*des.Second, nil, groups)
	if err != nil {
		b.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var delivered, lost uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg.Shards = shards
				s := core.NewSession(cfg)
				b.StartTimer()
				r := s.Run()
				delivered, lost = r.Delivered, r.Lost
			}
			b.ReportMetric(float64(delivered), "deliveries")
			b.ReportMetric(float64(lost), "lost")
		})
	}
}

// BenchmarkScenarioScaleBuild measures structure construction alone at
// the scale benchmark's dimensions: Waxman underlay, 2000-host
// attachment, 16 Zipf member sets, and 16 DSCT trees.
func BenchmarkScenarioScaleBuild(b *testing.B) {
	sc := MustScenario("waxman-zipf-16")
	for i := 0; i < b.N; i++ {
		cfg, err := sc.SessionConfig(sc.Combos[0], 0.8, uint64(i+1), UseSeed(uint64(i+2)),
			des.Second, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		core.NewSession(cfg)
	}
}

// BenchmarkSingleHopRun measures one Simulation I run.
func BenchmarkSingleHopRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Run(OneHop(Config{Mix: MixVideo, Load: 0.8, Scheme: SchemeSRL,
			Duration: 13 * des.Second, Seed: uint64(i + 1)}))
	}
}

// BenchmarkSessionRun measures one reduced multi-group run.
func BenchmarkSessionRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Run(Config{NumHosts: 60, Mix: MixAudio, Load: 0.8, Scheme: SchemeSRL,
			Duration: 5 * des.Second, Seed: uint64(i + 1)})
	}
}

// BenchmarkSessionBuild measures network + tree + host wiring alone.
func BenchmarkSessionBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.NewSession(core.Config{NumHosts: 665, Mix: traffic.MixAudio,
			Load: 0.8, Scheme: core.SchemeSRL, Seed: uint64(i + 1)})
	}
}
