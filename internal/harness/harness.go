// Package harness regenerates every table and figure of the paper's
// evaluation section: Fig. 4(a–c) (single regulated hop), Fig. 6(a–c)
// (multi-group EMcast under six scheme/tree combinations), Tables I–III
// (tree layer counts), plus the theory artefacts (ρ* thresholds, O(Kⁿ)
// improvement bands) and the Fig. 2 regulator trace.
//
// Each driver returns structured series/rows and can render itself as the
// same row layout the paper reports. EXPERIMENTS.md records paper-vs-
// measured values produced by these drivers. ScenarioSweep generalises
// them: it runs any registered internal/scenario entry over the same
// pool with the same determinism rules (the paper's Fig. 4/Fig. 6 are
// the entries "paper-fig4"/"paper-fig6").
package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// PaperLoads is the x-axis grid of every figure and table:
// ρ̄K ∈ {0.35, 0.40, …, 0.95}.
var PaperLoads = []float64{0.35, 0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95}

// Options tunes an experiment sweep.
type Options struct {
	// Seed drives all randomness. Default 1.
	Seed uint64
	// Loads is the x-axis grid. Default PaperLoads.
	Loads []float64
	// NumHosts for the multi-group runs. Default 665 (the paper's
	// population). Reduced sizes preserve the curve shapes.
	NumHosts int
	// Duration per multi-group run. Default 15 s (one extremal period
	// plus warm-up).
	Duration des.Duration
	// SingleHopDuration per Fig. 4 run. Default 36 s.
	SingleHopDuration des.Duration
	// IncludeAdaptive adds the adaptive algorithm as an extra series
	// (beyond the paper's two curves).
	IncludeAdaptive bool
	// Sequential runs all sweep points in order on the calling goroutine
	// (for debugging and as the determinism oracle). The default fans the
	// points out over a worker pool; results are identical either way.
	Sequential bool
	// Workers bounds the sweep worker pool. 0 means GOMAXPROCS.
	Workers int
	// Shards, when > 1, runs each multi-group session as a sharded
	// conservative-parallel simulation (core.Config.Shards): parallelism
	// *within* a run, complementing the pool's parallelism *across* runs.
	// Physics are preserved (delivery/loss/WDB match the one-shard
	// run); use it when a single big session, not the sweep, is the
	// bottleneck — sweeps with many cells usually saturate the cores
	// already, and shard workers then compete with pool workers.
	Shards int
	// AutoShards picks the shard count by measurement instead: before a
	// scenario sweep runs, core.AutoTuneShards probes candidate counts on
	// the heaviest cell and the count with the lowest barrier-stall share
	// overrides Shards (wdcsim -shards auto). Ignored by the figure
	// drivers, which run at paper scale where sharding never pays.
	AutoShards bool
	// Strategy, when non-empty, forces every regulated combo of a
	// scenario sweep onto the named overlay strategy (wdcsim -strategy),
	// overriding per-combo tree/strategy selections. Combos that become
	// identical under the override are deduplicated.
	Strategy string
}

func (o *Options) fill() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.Loads) == 0 {
		o.Loads = PaperLoads
	}
	if o.NumHosts == 0 {
		o.NumHosts = 665
	}
	if o.Duration == 0 {
		o.Duration = 15 * des.Second
	}
	if o.SingleHopDuration == 0 {
		o.SingleHopDuration = 36 * des.Second
	}
}

// Quick returns reduced-scale options for tests and benchmarks: 120 hosts,
// a 5-point load grid, shorter runs. Shapes (who wins, where the crossover
// falls) are preserved.
func Quick(seed uint64) Options {
	return Options{
		Seed:              seed,
		Loads:             []float64{0.35, 0.50, 0.65, 0.80, 0.95},
		NumHosts:          120,
		Duration:          13 * des.Second,
		SingleHopDuration: 13 * des.Second,
	}
}

// Fig4Result holds one Fig. 4 panel: the WDB curves of the two regulators
// over the load grid, with the crossover (the empirical rate threshold ρ*)
// and the maximum improvement the paper reports alongside.
type Fig4Result struct {
	Mix      traffic.Mix
	Loads    []float64
	SigmaRho *stats.Series
	SRL      *stats.Series
	Adaptive *stats.Series // nil unless Options.IncludeAdaptive
	// Crossover is the first load at which the (σ,ρ,λ) curve dips below
	// the (σ,ρ) curve — the empirical ρ*·K.
	Crossover   float64
	CrossoverOK bool
	// MaxRatio is max over loads ≥ Crossover of WDB(σ,ρ)/WDB(σ,ρ,λ), at
	// MaxRatioAt.
	MaxRatio   float64
	MaxRatioAt float64
	// TheoryThreshold is K·ρ* from Theorems 3/4.
	TheoryThreshold float64
}

// Fig4 reproduces one panel of Fig. 4 (a: audio, b: video, c: hetero).
// The (load, scheme) grid is embarrassingly parallel: envelopes are built
// once up front (see sweepSpecs for the invariant that makes the sharing
// sound), every point runs on its own engine with a traffic seed derived
// from (Options.Seed, load index), and the schemes at one load share that
// seed so their curves stay paired.
func Fig4(mix traffic.Mix, opts Options) Fig4Result {
	opts.fill()
	res := Fig4Result{
		Mix:      mix,
		Loads:    opts.Loads,
		SigmaRho: &stats.Series{Name: "sigma-rho"},
		SRL:      &stats.Series{Name: "sigma-rho-lambda"},
	}
	schemes := []core.Scheme{core.SchemeSigmaRho, core.SchemeSRL}
	if opts.IncludeAdaptive {
		res.Adaptive = &stats.Series{Name: "adaptive"}
		schemes = append(schemes, core.SchemeAdaptive)
	}
	specs := sweepSpecs(core.WorkloadExtremal, mix, opts)
	cells := make([]core.SingleHopResult, len(opts.Loads)*len(schemes))
	runJobs(len(cells), opts, func(i int) {
		li, si := i/len(schemes), i%len(schemes)
		load := opts.Loads[li]
		cells[i] = core.RunSingleHop(core.SingleHopConfig{
			Mix: mix, Load: load, Scheme: schemes[si],
			Duration: opts.SingleHopDuration, Seed: opts.Seed,
			TrafficSeed: core.UseSeed(DeriveSeed(opts.Seed, li)), Specs: specs,
		})
		assertSpecsMatch(specs, cells[i].Specs, load)
	})
	res.TheoryThreshold = cells[0].ThresholdUtil
	for li, load := range opts.Loads {
		row := cells[li*len(schemes):]
		res.SigmaRho.Add(load, row[0].WDB)
		res.SRL.Add(load, row[1].WDB)
		if res.Adaptive != nil {
			res.Adaptive.Add(load, row[2].WDB)
		}
	}
	res.Crossover, res.CrossoverOK = stats.Crossover(res.SRL, res.SigmaRho)
	if res.CrossoverOK {
		res.MaxRatio, res.MaxRatioAt = stats.MaxRatio(res.SigmaRho, res.SRL, res.Crossover)
	}
	return res
}

// Table renders the panel in the paper's row layout.
func (r Fig4Result) Table() *stats.Table {
	cols := []string{"rho*K", "WDB (σ,ρ) [s]", "WDB (σ,ρ,λ) [s]"}
	if r.Adaptive != nil {
		cols = append(cols, "WDB adaptive [s]")
	}
	t := stats.NewTable(cols...)
	for i, x := range r.Loads {
		row := []string{
			fmt.Sprintf("%.2f", x),
			fmt.Sprintf("%.4f", r.SigmaRho.Y[i]),
			fmt.Sprintf("%.4f", r.SRL.Y[i]),
		}
		if r.Adaptive != nil {
			row = append(row, fmt.Sprintf("%.4f", r.Adaptive.Y[i]))
		}
		t.AddRow(row...)
	}
	return t
}

// Summary gives the one-line comparison against the paper.
func (r Fig4Result) Summary() string {
	if !r.CrossoverOK {
		return fmt.Sprintf("mix=%v no crossover observed (theory threshold %.2f)",
			r.Mix, r.TheoryThreshold)
	}
	return fmt.Sprintf("mix=%v crossover=%.2f (theory %.2f); max improvement %.2fx at %.2f",
		r.Mix, r.Crossover, r.TheoryThreshold, r.MaxRatio, r.MaxRatioAt)
}

// SchemeTree names one of the six Fig. 6 combinations.
type SchemeTree struct {
	Scheme core.Scheme
	Tree   core.TreeKind
}

// String implements fmt.Stringer ("capacity-aware DSCT" etc.).
func (st SchemeTree) String() string {
	return fmt.Sprintf("%v %v", st.Scheme, st.Tree)
}

// Fig6Combos lists the paper's six scheme/tree combinations.
var Fig6Combos = []SchemeTree{
	{core.SchemeCapacityAware, core.TreeDSCT},
	{core.SchemeSigmaRho, core.TreeDSCT},
	{core.SchemeSRL, core.TreeDSCT},
	{core.SchemeCapacityAware, core.TreeNICE},
	{core.SchemeSigmaRho, core.TreeNICE},
	{core.SchemeSRL, core.TreeNICE},
}

// Fig6Result holds one Fig. 6 panel: six WDB curves plus the layer counts
// that feed Tables I–III.
type Fig6Result struct {
	Mix    traffic.Mix
	Loads  []float64
	Curves map[SchemeTree]*stats.Series
	// Layers[st][i] is the max tree layer count of combination st at
	// Loads[i] (constant in load for regulated schemes).
	Layers map[SchemeTree][]int
	// Crossover and MaxRatio compare DSCT's (σ,ρ,λ) curve against its
	// (σ,ρ) curve, as the paper does.
	Crossover       float64
	CrossoverOK     bool
	MaxRatio        float64
	MaxRatioAt      float64
	TheoryThreshold float64
}

// Fig6 reproduces one panel of Fig. 6 (a: audio, b: video, c: hetero).
// All (load, scheme/tree) points fan out over the worker pool with one
// engine each; Options.Seed pins the shared network and trees across the
// sweep (the paper holds them fixed) while each load gets its own derived
// traffic seed.
func Fig6(mix traffic.Mix, opts Options) Fig6Result {
	opts.fill()
	res := Fig6Result{
		Mix:    mix,
		Loads:  opts.Loads,
		Curves: make(map[SchemeTree]*stats.Series),
		Layers: make(map[SchemeTree][]int),
	}
	for _, st := range Fig6Combos {
		res.Curves[st] = &stats.Series{Name: st.String()}
	}
	specs := sweepSpecs(core.WorkloadExtremal, mix, opts)
	cells := make([]core.Result, len(opts.Loads)*len(Fig6Combos))
	runJobs(len(cells), opts, func(i int) {
		li, ci := i/len(Fig6Combos), i%len(Fig6Combos)
		load := opts.Loads[li]
		st := Fig6Combos[ci]
		cells[i] = core.Run(core.Config{
			NumHosts:    opts.NumHosts,
			Mix:         mix,
			Load:        load,
			Scheme:      st.Scheme,
			Tree:        st.Tree,
			Duration:    opts.Duration,
			Seed:        opts.Seed,
			TrafficSeed: core.UseSeed(DeriveSeed(opts.Seed, li)),
			Specs:       specs,
			Shards:      opts.Shards,
		})
		assertSpecsMatch(specs, cells[i].Specs, load)
	})
	res.TheoryThreshold = cells[0].ThresholdUtil
	for li, load := range opts.Loads {
		for ci, st := range Fig6Combos {
			r := cells[li*len(Fig6Combos)+ci]
			res.Curves[st].Add(load, r.WDB)
			res.Layers[st] = append(res.Layers[st], r.Layers)
		}
	}
	dsctSRL := res.Curves[SchemeTree{core.SchemeSRL, core.TreeDSCT}]
	dsctSR := res.Curves[SchemeTree{core.SchemeSigmaRho, core.TreeDSCT}]
	res.Crossover, res.CrossoverOK = stats.Crossover(dsctSRL, dsctSR)
	if res.CrossoverOK {
		res.MaxRatio, res.MaxRatioAt = stats.MaxRatio(dsctSR, dsctSRL, res.Crossover)
	}
	return res
}

// Table renders the six curves in the paper's layout.
func (r Fig6Result) Table() *stats.Table {
	header := []string{"rho*K"}
	for _, st := range Fig6Combos {
		header = append(header, st.String()+" [s]")
	}
	t := stats.NewTable(header...)
	for i, x := range r.Loads {
		row := []string{fmt.Sprintf("%.2f", x)}
		for _, st := range Fig6Combos {
			row = append(row, fmt.Sprintf("%.4f", r.Curves[st].Y[i]))
		}
		t.AddRow(row...)
	}
	return t
}

// Summary gives the one-line comparison against the paper.
func (r Fig6Result) Summary() string {
	if !r.CrossoverOK {
		return fmt.Sprintf("mix=%v DSCT curves never cross (theory threshold %.2f)",
			r.Mix, r.TheoryThreshold)
	}
	return fmt.Sprintf("mix=%v DSCT crossover=%.2f (theory %.2f); max improvement %.2fx at %.2f",
		r.Mix, r.Crossover, r.TheoryThreshold, r.MaxRatio, r.MaxRatioAt)
}

// LayerTable renders the Tables I–III comparison: capacity-aware DSCT
// layer count versus regulated DSCT layer count per load.
func (r Fig6Result) LayerTable() *stats.Table {
	t := stats.NewTable("rho*K", "Capacity-aware DSCT", "DSCT with (σ,ρ,λ)")
	ca := r.Layers[SchemeTree{core.SchemeCapacityAware, core.TreeDSCT}]
	srl := r.Layers[SchemeTree{core.SchemeSRL, core.TreeDSCT}]
	for i, x := range r.Loads {
		t.AddRow(fmt.Sprintf("%.2f", x), fmt.Sprintf("%d", ca[i]), fmt.Sprintf("%d", srl[i]))
	}
	return t
}
