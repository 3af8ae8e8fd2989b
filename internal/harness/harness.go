// Package harness regenerates every table and figure of the paper's
// evaluation section. The sweeps — Fig. 4(a–c) (single regulated hop),
// Fig. 6(a–c) (multi-group EMcast under six scheme/tree combinations) and
// Tables I–III (tree layer counts) — are registry entries of
// internal/scenario ("paper-fig4", "paper-fig4b", … "paper-fig6c") run by
// ScenarioSweep, the one sweep driver: any registered or parsed scenario
// goes through the same worker pool under the same determinism rules. The
// non-sweep artefacts (ρ* thresholds, O(Kⁿ) improvement bands, the Fig. 2
// regulator trace) live in tables.go.
//
// A ScenarioResult renders itself as the row layout the paper reports
// (Table, LayerTable, CrossoverSummary) and as a JSON record.
// EXPERIMENTS.md records paper-vs-measured values produced this way.
package harness

import "repro/internal/des"

// PaperLoads is the x-axis grid of every figure and table:
// ρ̄K ∈ {0.35, 0.40, …, 0.95}.
var PaperLoads = []float64{0.35, 0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95}

// Options tunes an experiment sweep.
type Options struct {
	// Seed drives all randomness. Default 1.
	Seed uint64
	// Loads is the x-axis grid. Default: the scenario's own, else
	// PaperLoads.
	Loads []float64
	// NumHosts for the multi-group runs. Default: the scenario's own,
	// else 665 (the paper's population). Reduced sizes preserve the curve
	// shapes; the one-hop preset keeps its two hosts.
	NumHosts int
	// Duration per run. Default: the scenario's own, else 15 s for a
	// multi-group run (one extremal period plus warm-up) and 36 s for the
	// one-hop preset (three extremal periods).
	Duration des.Duration
	// Workers bounds the sweep worker pool. 0 means GOMAXPROCS; 1 runs
	// all sweep points in order on the calling goroutine (for debugging and
	// as the determinism oracle). Results are identical at every count.
	Workers int
	// Shards, when > 1, runs each multi-group session as a sharded
	// conservative-parallel simulation (core.Config.Shards): parallelism
	// *within* a run, complementing the pool's parallelism *across* runs.
	// Physics are preserved (delivery/loss/WDB match the one-shard
	// run); use it when a single big session, not the sweep, is the
	// bottleneck. Shard runners are bounded to GOMAXPROCS process-wide
	// (des.Coordinator.Run), so a pool that already fills the cores runs
	// each sharded cell's epochs inline rather than competing with it.
	Shards int
	// Strategy, when non-empty, forces every regulated combo of a
	// scenario sweep onto the named overlay strategy (wdcsim -strategy),
	// overriding per-combo tree/strategy selections. Combos that become
	// identical under the override are deduplicated.
	Strategy string
}

// Quick returns reduced-scale options for tests and benchmarks: 120 hosts,
// a 5-point load grid, shorter runs. Shapes (who wins, where the crossover
// falls) are preserved.
func Quick(seed uint64) Options {
	return Options{
		Seed:     seed,
		Loads:    []float64{0.35, 0.50, 0.65, 0.80, 0.95},
		NumHosts: 120,
		Duration: 13 * des.Second,
	}
}
