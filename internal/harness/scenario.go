package harness

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/calculus"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/overlay"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// ScenarioCurve is one combo's series across the load grid.
type ScenarioCurve struct {
	Combo scenario.Combo
	// WDB is the worst-case delay per load.
	WDB *stats.Series
	// MeanDelay is the mean delivery delay per load.
	MeanDelay *stats.Series
	// Layers is the max tree layer count per load.
	Layers []int
	// Bound is the theoretical worst-case multicast delay per load
	// (Remark 2 for (σ,ρ), Theorem 7 for (σ,ρ,λ), at the measured layer
	// count and the slowest uplink class's capacity); 0 where no closed
	// form applies (capacity-aware, adaptive).
	Bound []float64
	// Violations counts loads whose measured WDB exceeded Bound — under
	// static membership this stays 0; churn repair transients may breach
	// the static bound, which is exactly what the metric surfaces.
	Violations int
	// Lost is the per-load churn-disruption count (packets dropped outside
	// membership intervals plus regulator backlog abandoned at departures).
	Lost []uint64
	// WindowMax holds the per-load windowed max-delay series (bucket
	// width WindowSec) — the transient view around churn events. Empty
	// when the scenario sets no window.
	WindowMax [][]float64
	// WindowSec is the window bucket width (0 when unset).
	WindowSec float64
	// Reopts and ReoptMoves total the accepted re-optimization passes and
	// the members they re-parented across the load grid, ReoptRejected the
	// passes the hysteresis turned down (zero unless the scenario enables
	// re-optimization). ReoptRejected is not part of the JSON record.
	Reopts, ReoptMoves, ReoptRejected int
	// Faults holds the per-load fault outcomes — one record per injected
	// fault event with its measured impact and recovery time. Nil when the
	// scenario injects no faults.
	Faults [][]core.FaultOutcome
	// CutLost is the per-load count of packets dropped at partition cuts
	// (disjoint from Lost, which counts teardown backlog).
	CutLost []uint64
	// Sharded-execution diagnostics per load, nil when every cell ran on
	// one shard: shard count, barrier epochs, cross-shard
	// messages, and the barrier-stall share (fraction of shard-step
	// capacity idled at epoch barriers).
	Shards         []int
	Epochs         []uint64
	CrossShardMsgs []uint64
	StallShare     []float64
	// Account is the per-load per-shard ledger behind the stall share and
	// the census (ShardTable and CensusTable print it), Delivered the per-
	// load reception count the census divides by; neither is part of the
	// JSON record.
	Account   []des.ShardAccount
	Delivered []uint64
}

// ScenarioResult is a full scenario sweep: one curve per combo.
type ScenarioResult struct {
	Scenario scenario.Scenario
	Loads    []float64
	Curves   []ScenarioCurve
	// Delivered totals packet receptions across every cell of the sweep.
	Delivered uint64
	// Churn disruption totals across every cell (zero without churn).
	Joins, Leaves, Regrafts int
	Lost                    uint64
	// Re-optimization totals across every cell (zero unless enabled); the
	// rejected passes are not part of the JSON record.
	Reopts, ReoptMoves, ReoptRejected int
	// Fault-attributed losses across every cell (zero without faults):
	// FaultLost is teardown backlog plus cut drops attributed to fault
	// events; CutLost is the partition-cut share alone.
	FaultLost, CutLost uint64
	// Shards is the largest shard count any cell actually ran with (0
	// when every cell ran on one shard).
	Shards int
}

// sweepCell is one (load, combo) cell's raw measurements — the engine
// outputs the sweep aggregates from. Fleet workers ship cells verbatim as
// JSON (float64 values round-trip bit-exactly through encoding/json), so
// a distributed sweep merges to the byte-identical result of an
// in-process one. Slice nil-ness is significant (nil = the feature was
// off), hence no omitempty. ReoptRejected rides in the cell file, so a
// fleet merge reports what an in-process sweep does, though the sweep's own
// JSON record (ScenarioRecord) leaves it out.
type sweepCell struct {
	WDB           float64             `json:"wdb"`
	Mean          float64             `json:"mean"`
	Layers        int                 `json:"layers"`
	Delivered     uint64              `json:"delivered"`
	Lost          uint64              `json:"lost"`
	Joins         int                 `json:"joins"`
	Leaves        int                 `json:"leaves"`
	Regrafts      int                 `json:"regrafts"`
	Reopts        int                 `json:"reopts"`
	ReoptMoves    int                 `json:"reopt_moves"`
	ReoptRejected int                 `json:"reopt_rejected"`
	Windows       []float64           `json:"windows"`
	WindowSec     float64             `json:"window_sec"`
	Faults        []core.FaultOutcome `json:"faults"`
	FaultLost     uint64              `json:"fault_lost"`
	CutLost       uint64              `json:"cut_lost"`
	Shards        int                 `json:"shards"`
	Epochs        uint64              `json:"epochs"`
	CrossMsgs     uint64              `json:"cross_shard_msgs"`
	Stall         float64             `json:"stall_share"`
	Account       des.ShardAccount    `json:"account"`
}

// sweepPlan is a fully compiled scenario sweep: the (possibly overridden)
// scenario, the resolved grid and duration, shared specs and membership,
// and one ready-to-run config per (load, combo) cell. Building the plan is
// a pure function of (scenario, options), so a fleet worker handed the
// same inputs compiles the identical plan — the basis of the distributed
// sweep's merge-identical guarantee.
type sweepPlan struct {
	sc     scenario.Scenario
	seed   uint64
	loads  []float64
	mix    traffic.Mix
	specs  []core.FlowSpec
	combos []scenario.Combo
	cfgs   []core.Config // one per cell, load-major
	shards int           // per-run shard count; 0 for one engine
}

// newSweepPlan validates and compiles the sweep: option overrides applied,
// grid and duration resolved, specs and membership materialised once, and
// every cell's config built up front so configuration errors surface
// before any engine runs.
func newSweepPlan(sc scenario.Scenario, opts Options) (*sweepPlan, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	if opts.NumHosts > 0 {
		sc.NumHosts = opts.NumHosts
	}
	if opts.Strategy != "" {
		// Force the sweep onto one strategy: clear per-combo selections
		// (on a copy — the combo slice may be shared with the registry)
		// and deduplicate combos the override made identical. Capacity-
		// aware combos keep their own construction and are untouched.
		sc.Strategy = opts.Strategy
		var combos []scenario.Combo
		seen := map[string]bool{}
		for _, c := range sc.Combos {
			if scheme, err := scenario.ParseScheme(c.Scheme); err == nil && scheme != core.SchemeCapacityAware {
				c.Tree, c.Strategy = "", ""
			}
			if key := c.String(); !seen[key] {
				seen[key] = true
				combos = append(combos, c)
			}
		}
		sc.Combos = combos
		if err := sc.Validate(); err != nil {
			return nil, err
		}
	}
	// An explicitly passed grid beats the scenario's own, which beats the
	// paper grid — mirroring the NumHosts/duration precedence.
	loads := opts.Loads
	if len(loads) == 0 {
		loads = sc.Loads
	}
	if len(loads) == 0 {
		loads = PaperLoads
	}

	mix, err := sc.ParseMix()
	if err != nil {
		return nil, err
	}
	workload, err := sc.ParseWorkload()
	if err != nil {
		return nil, err
	}
	specs := core.DefaultSpecsN(workload, mix, sc.GroupCount(), seed)

	p := &sweepPlan{sc: sc, seed: seed, loads: loads, mix: mix, specs: specs, combos: sc.Combos}
	n := len(loads) * len(p.combos)
	// Membership is a pure function of (scenario, seed): materialise
	// it once and share it read-only across every cell.
	groups := sc.Groups(seed)
	p.cfgs = make([]core.Config, n)
	for i := range p.cfgs {
		li, ci := i/len(p.combos), i%len(p.combos)
		// A zero opts.Duration leaves the horizon to the scenario.
		p.cfgs[i], err = sc.SessionConfig(p.combos[ci], loads[li], seed,
			core.UseSeed(DeriveSeed(seed, li)), opts.Duration, specs, groups)
		if err != nil {
			return nil, err
		}
	}
	if opts.Shards > 1 {
		p.shards = opts.Shards
		for i := range p.cfgs {
			p.cfgs[i].Shards = opts.Shards
		}
	}
	return p, nil
}

// dur is the resolved per-run simulated time, the same in every cell.
func (p *sweepPlan) dur() des.Duration { return p.cfgs[0].Duration }

// cellCount is the number of (load, combo) cells in the sweep.
func (p *sweepPlan) cellCount() int { return len(p.loads) * len(p.combos) }

// runCell executes cell i = load-index × combos + combo-index — pure:
// the same plan and index give the bit-identical cell anywhere.
func (p *sweepPlan) runCell(i int) sweepCell {
	s := core.NewSession(p.cfgs[i])
	r := s.Run()
	assertSpecsMatch(p.specs, r.Specs, p.cfgs[i].Load)
	return sweepCell{WDB: r.WDB, Mean: r.MeanDelay, Layers: r.Layers,
		Delivered: r.Delivered, Lost: r.Lost,
		Joins: r.Joins, Leaves: r.Leaves, Regrafts: r.Regrafts,
		Reopts: r.Reopts, ReoptMoves: r.ReoptMoves, ReoptRejected: r.ReoptRejected,
		Windows: r.WindowMax, WindowSec: r.WindowSec,
		Faults: r.Faults, FaultLost: r.FaultLost, CutLost: r.CutLost,
		Shards: r.Shards, Epochs: r.Epochs, CrossMsgs: r.CrossShardMsgs,
		Stall: r.StallShare, Account: s.ShardAccount()}
}

// aggregate folds the cells into the sweep result — shared verbatim
// between the in-process sweep and the fleet merge, so both emit the same
// bytes from the same cells.
func (p *sweepPlan) aggregate(cells []sweepCell) ScenarioResult {
	res := ScenarioResult{Scenario: p.sc, Loads: p.loads}
	for _, c := range p.combos {
		res.Curves = append(res.Curves, ScenarioCurve{
			Combo:     c,
			WDB:       &stats.Series{Name: c.String()},
			MeanDelay: &stats.Series{Name: c.String() + " mean"},
			Layers:    make([]int, len(p.loads)),
			Bound:     make([]float64, len(p.loads)),
			Lost:      make([]uint64, len(p.loads)),
			Account:   make([]des.ShardAccount, len(p.loads)),
			Delivered: make([]uint64, len(p.loads)),
		})
	}
	for li, load := range p.loads {
		for ci := range p.combos {
			c := cells[li*len(p.combos)+ci]
			res.Curves[ci].WDB.Add(load, c.WDB)
			res.Curves[ci].MeanDelay.Add(load, c.Mean)
			res.Curves[ci].Layers[li] = c.Layers
			res.Curves[ci].Lost[li] = c.Lost
			res.Curves[ci].Account[li] = c.Account
			res.Curves[ci].Delivered[li] = c.Delivered
			if c.Windows != nil {
				if res.Curves[ci].WindowMax == nil {
					res.Curves[ci].WindowMax = make([][]float64, len(p.loads))
				}
				res.Curves[ci].WindowMax[li] = c.Windows
				res.Curves[ci].WindowSec = c.WindowSec
			}
			res.Curves[ci].Reopts += c.Reopts
			res.Curves[ci].ReoptMoves += c.ReoptMoves
			res.Curves[ci].ReoptRejected += c.ReoptRejected
			if c.Shards > 1 {
				if res.Curves[ci].Shards == nil {
					res.Curves[ci].Shards = make([]int, len(p.loads))
					res.Curves[ci].Epochs = make([]uint64, len(p.loads))
					res.Curves[ci].CrossShardMsgs = make([]uint64, len(p.loads))
					res.Curves[ci].StallShare = make([]float64, len(p.loads))
				}
				res.Curves[ci].Shards[li] = c.Shards
				res.Curves[ci].Epochs[li] = c.Epochs
				res.Curves[ci].CrossShardMsgs[li] = c.CrossMsgs
				res.Curves[ci].StallShare[li] = c.Stall
				if c.Shards > res.Shards {
					res.Shards = c.Shards
				}
			}
			if c.Faults != nil {
				if res.Curves[ci].Faults == nil {
					res.Curves[ci].Faults = make([][]core.FaultOutcome, len(p.loads))
					res.Curves[ci].CutLost = make([]uint64, len(p.loads))
				}
				res.Curves[ci].Faults[li] = c.Faults
				res.Curves[ci].CutLost[li] = c.CutLost
				res.FaultLost += c.FaultLost
				res.CutLost += c.CutLost
			}
			bound := theoryBound(p.sc, p.combos[ci], p.mix, p.specs, load, c.Layers)
			res.Curves[ci].Bound[li] = bound
			if bound > 0 && c.WDB > bound {
				res.Curves[ci].Violations++
			}
			res.Delivered += c.Delivered
			res.Lost += c.Lost
			res.Joins += c.Joins
			res.Leaves += c.Leaves
			res.Regrafts += c.Regrafts
			res.Reopts += c.Reopts
			res.ReoptMoves += c.ReoptMoves
			res.ReoptRejected += c.ReoptRejected
		}
	}
	return res
}

// ScenarioSweep runs a scenario over its load grid with one engine per
// (load, combo) cell, fanned out over the worker pool (runJobs) under its
// determinism rules: the structural seed (opts.Seed) pins network,
// membership, and trees across the whole sweep — the paper holds them
// fixed; each load's traffic seed derives from (seed, load index) so
// combos at one load stay paired; specs are built once and shared
// read-only. Sequential and parallel execution are bit-identical, as is a
// distributed FleetSweep of the same scenario and options.
//
// Precedence for the grid and duration: an explicit opts value beats the
// scenario's own, which beats the default (the paper grid; for the
// duration, SessionConfig's per-kind horizon). The paper's Fig. 4/Fig. 6
// panels and Tables I–III are ScenarioSweep(Lookup("paper-fig4"…"-fig6c")).
func ScenarioSweep(sc scenario.Scenario, opts Options) (ScenarioResult, error) {
	p, err := newSweepPlan(sc, opts)
	if err != nil {
		return ScenarioResult{}, err
	}
	cells := make([]sweepCell, p.cellCount())
	runJobs(len(cells), opts, func(i int) { cells[i] = p.runCell(i) })
	return p.aggregate(cells), nil
}

// theoryBound computes the closed-form worst-case multicast delay for one
// (combo, load) cell: Remark 2's (H−1)·Dg for (σ, ρ) end hosts, Theorem
// 7's (H−1)·D̂g for (σ, ρ, λ), at the cell's measured layer count, with
// every envelope normalised by the slowest uplink class's connection
// capacity (the binding hop). Schemes without a closed form — capacity-
// aware reshaping, the adaptive switcher mid-flight — report 0.
func theoryBound(sc scenario.Scenario, combo scenario.Combo, mix traffic.Mix,
	specs []core.FlowSpec, load float64, layers int) float64 {
	if layers < 2 {
		return 0
	}
	scheme, err := scenario.ParseScheme(combo.Scheme)
	if err != nil || (scheme != core.SchemeSigmaRho && scheme != core.SchemeSRL) {
		return 0
	}
	// Under churn or re-optimization the reported layer count is an
	// end-of-run snapshot; the whole-run WDB must be compared against a
	// height that held at every instant. The control plane enforces the
	// strategy's height bound on grafts, repairs, and rewires — for the
	// cluster strategies that is the Lemma 2 bound — so bound at that cap
	// instead of the snapshot. Strategies without a closed-form height
	// bound (spt, greedy) fall back to the snapshot, so their churn-time
	// bound column is best-effort.
	if sc.Churn.Enabled() || sc.Reopt.Enabled() {
		if strat, err := overlay.LookupStrategy(strategyName(sc, combo)); err == nil {
			lim := strat.Limits(overlay.Config{K: sc.ClusterK}, sc.Hosts())
			if lim.MaxHeight > 0 {
				layers = lim.MaxHeight + 1
			}
		}
	}
	conn := mix.TotalRateN(len(specs)) / load
	minMult := 1.0
	if classes := sc.UplinkClasses(); len(classes) > 0 {
		minMult = classes[0].Mult
		for _, c := range classes[1:] {
			if c.Mult < minMult {
				minMult = c.Mult
			}
		}
	}
	c := minMult * conn
	sigmas := make([]float64, len(specs))
	rhos := make([]float64, len(specs))
	for i, sp := range specs {
		sigmas[i], rhos[i] = calculus.Normalize(sp.Sigma, sp.Rho, c)
	}
	if scheme == core.SchemeSRL {
		return calculus.MulticastDhatHetero(layers, sigmas, rhos)
	}
	return calculus.MulticastDgHetero(layers, sigmas, rhos)
}

// strategyName resolves the overlay strategy in force for a combo —
// StrategyFor, with the legacy dsct default made explicit so bound and
// table code can always name the strategy.
func strategyName(sc scenario.Scenario, combo scenario.Combo) string {
	if name := sc.StrategyFor(combo); name != "" {
		return name
	}
	if scheme, err := scenario.ParseScheme(combo.Scheme); err == nil && scheme == core.SchemeCapacityAware {
		return "flat"
	}
	return "dsct"
}

// StrategyTable renders the comparative per-strategy view of a sweep:
// one row per combo with its resolved overlay strategy, the worst-case
// and mean delay at the heaviest load, the theory bound and its violation
// count, and the disruption totals (churn losses, re-optimization passes
// accepted and rejected, members moved) — the at-a-glance answer to "which
// strategy wins here".
func (r ScenarioResult) StrategyTable() *stats.Table {
	t := stats.NewTable("combo", "strategy", "wdb [s]", "mean [s]", "layers",
		"bound [s]", "viol", "lost", "accepted", "rejected", "moves")
	if len(r.Loads) == 0 {
		return t
	}
	last := len(r.Loads) - 1
	for _, c := range r.Curves {
		strat := strategyName(r.Scenario, c.Combo)
		bound := "-"
		if c.Bound[last] > 0 {
			bound = fmt.Sprintf("%.4f", c.Bound[last])
		}
		var lost uint64
		for _, l := range c.Lost {
			lost += l
		}
		t.AddRow(c.Combo.Scheme, strat,
			fmt.Sprintf("%.4f", c.WDB.Y[last]),
			fmt.Sprintf("%.4f", c.MeanDelay.Y[last]),
			fmt.Sprintf("%d", c.Layers[last]),
			bound,
			fmt.Sprintf("%d", c.Violations),
			fmt.Sprintf("%d", lost),
			fmt.Sprintf("%d", c.Reopts),
			fmt.Sprintf("%d", c.ReoptRejected),
			fmt.Sprintf("%d", c.ReoptMoves))
	}
	return t
}

// ShardTable renders the sharded-execution account at the heaviest load,
// one row per combo that ran on more than one shard: epochs (how many had
// two or more active shards and so something to run side by side), cross-
// shard messages, the barrier-stall share, the scaling ceiling it implies
// (core.Result.ShardCeiling), and each shard's executed events and active
// epochs. Every column is a function of event counts, identical on any
// machine.
func (r ScenarioResult) ShardTable() *stats.Table {
	t := stats.NewTable("combo", "shards", "epochs", "parallel", "cross msgs", "stall", "ceiling",
		"events per shard", "active epochs per shard")
	last := len(r.Loads) - 1
	for _, c := range r.Curves {
		if c.Shards == nil || c.Shards[last] < 2 {
			continue
		}
		a := c.Account[last]
		t.AddRow(c.Combo.String(),
			fmt.Sprintf("%d", c.Shards[last]),
			fmt.Sprintf("%d", c.Epochs[last]),
			fmt.Sprintf("%d", a.Parallel),
			fmt.Sprintf("%d", c.CrossShardMsgs[last]),
			fmt.Sprintf("%.3f", c.StallShare[last]),
			fmt.Sprintf("%.3f", core.Result{Shards: c.Shards[last], StallShare: c.StallShare[last]}.ShardCeiling()),
			fmt.Sprint(a.Events), fmt.Sprint(a.Active))
	}
	return t
}

// CensusTable renders the executed-event census at the heaviest load, one
// row per combo: events per delivery in total and by event kind, summed
// over the shards. A function of event counts, identical on any machine —
// the per-delivery cost a change to the engine's event structure moves.
func (r ScenarioResult) CensusTable() *stats.Table {
	last := len(r.Loads) - 1
	census := make([][des.NumKinds]uint64, len(r.Curves))
	var any [des.NumKinds]bool
	for ci, c := range r.Curves {
		for _, shard := range c.Account[last].ByKind {
			for k, n := range shard {
				census[ci][k] += n
				any[k] = any[k] || n > 0
			}
		}
	}
	cols := []string{"combo", "events", "per delivery"}
	for k := range any {
		if any[k] {
			cols = append(cols, des.KindName(uint16(k)))
		}
	}
	t := stats.NewTable(cols...)
	for ci, c := range r.Curves {
		per := func(n uint64) string { return fmt.Sprintf("%.3f", float64(n)/float64(max(c.Delivered[last], 1))) }
		var total uint64
		for _, n := range census[ci] {
			total += n
		}
		row := []string{c.Combo.String(), fmt.Sprintf("%d", total), per(total)}
		for k, n := range census[ci] {
			if any[k] {
				row = append(row, per(n))
			}
		}
		t.AddRow(row...)
	}
	return t
}

// FaultTable renders the recovery view of a fault-injection sweep at the
// heaviest load: one row per (combo, fault event) with the event's reach,
// the orphan subtrees re-grafted while handling it, the loss attributed
// to it, the measured service-interruption time, and the transient WDB
// spike — the peak of the windowed max-delay series in the second after
// the event struck. Returns an empty table when the sweep injected no
// faults.
func (r ScenarioResult) FaultTable() *stats.Table {
	t := stats.NewTable("combo", "strategy", "event", "at [s]", "group",
		"hosts", "regrafts", "lost", "recov [s]", "spike [s]")
	if len(r.Loads) == 0 {
		return t
	}
	last := len(r.Loads) - 1
	for _, c := range r.Curves {
		if c.Faults == nil || c.Faults[last] == nil {
			continue
		}
		strat := strategyName(r.Scenario, c.Combo)
		for _, oc := range c.Faults[last] {
			group := "-"
			if oc.Group >= 0 {
				group = fmt.Sprintf("%d", oc.Group)
			}
			recov := fmt.Sprintf("%.4f", oc.RecoverySec)
			if oc.Unrecovered > 0 {
				recov += fmt.Sprintf(" (+%d open)", oc.Unrecovered)
			}
			spike := "-"
			if c.WindowSec > 0 && c.WindowMax != nil && len(c.WindowMax[last]) > 0 {
				spike = fmt.Sprintf("%.4f",
					stats.MaxIn(c.WindowMax[last], c.WindowSec, oc.AtSec, oc.AtSec+1))
			}
			t.AddRow(c.Combo.Scheme, strat, oc.Kind,
				fmt.Sprintf("%.2f", oc.AtSec), group,
				fmt.Sprintf("%d", oc.Hosts),
				fmt.Sprintf("%d", oc.Regrafts),
				fmt.Sprintf("%d", oc.Lost),
				recov, spike)
		}
	}
	return t
}

// Crossover is the paper's headline comparison on one strategy's pair of
// curves: where (σ, ρ, λ) regulation starts to beat (σ, ρ), and by how
// much at most.
type Crossover struct {
	// Strategy is the overlay strategy the two curves share.
	Strategy string
	// At is the first load at which the (σ,ρ,λ) curve dips to or below the
	// (σ,ρ) curve — the empirical ρ*·K. OK is false when it never does.
	At float64
	OK bool
	// MaxRatio is the max over loads ≥ At of WDB(σ,ρ)/WDB(σ,ρ,λ), reached
	// at MaxRatioAt.
	MaxRatio, MaxRatioAt float64
}

// Crossovers compares the sigma-rho-lambda curve against the sigma-rho
// curve of every strategy that carries both, in curve order.
func (r ScenarioResult) Crossovers() []Crossover {
	var out []Crossover
	for _, sr := range r.Curves {
		if sr.Combo.Scheme != "sigma-rho" {
			continue
		}
		strat := strategyName(r.Scenario, sr.Combo)
		for _, srl := range r.Curves {
			if srl.Combo.Scheme != "sigma-rho-lambda" || strategyName(r.Scenario, srl.Combo) != strat {
				continue
			}
			c := Crossover{Strategy: strat}
			c.At, c.OK = stats.Crossover(srl.WDB, sr.WDB)
			if c.OK {
				c.MaxRatio, c.MaxRatioAt = stats.MaxRatio(sr.WDB, srl.WDB, c.At)
			}
			out = append(out, c)
			break
		}
	}
	return out
}

// TheoryThreshold is K·ρ* from Theorems 3/4 for the scenario's flow count
// and mix — the load at which theory says the crossover falls.
func (r ScenarioResult) TheoryThreshold() float64 {
	mix, _ := r.Scenario.ParseMix() // validated by the sweep
	return core.ThresholdUtilization(r.Scenario.GroupCount(), mix.Homogeneous())
}

// CrossoverSummary gives the comparison against the paper, one line per
// Crossovers entry: measured crossover beside the theory threshold, and
// the maximum improvement. Empty when no strategy carries both curves.
func (r ScenarioResult) CrossoverSummary() string {
	var b strings.Builder
	for _, c := range r.Crossovers() {
		if !c.OK {
			fmt.Fprintf(&b, "%s: no crossover observed (theory threshold %.2f)\n", c.Strategy, r.TheoryThreshold())
			continue
		}
		fmt.Fprintf(&b, "%s: crossover=%.2f (theory %.2f); max improvement %.2fx at %.2f\n",
			c.Strategy, c.At, r.TheoryThreshold(), c.MaxRatio, c.MaxRatioAt)
	}
	return b.String()
}

// HasFaults reports whether any curve carries fault outcomes.
func (r ScenarioResult) HasFaults() bool {
	for _, c := range r.Curves {
		if c.Faults != nil {
			return true
		}
	}
	return false
}

// gridTable renders one value per (load, combo) in the figure layout: one
// column per combo, one row per load.
func (r ScenarioResult) gridTable(unit string, cell func(c ScenarioCurve, i int) string) *stats.Table {
	header := []string{"rho*K"}
	for _, c := range r.Curves {
		header = append(header, c.Combo.String()+unit)
	}
	t := stats.NewTable(header...)
	for i, x := range r.Loads {
		row := []string{fmt.Sprintf("%.2f", x)}
		for _, c := range r.Curves {
			row = append(row, cell(c, i))
		}
		t.AddRow(row...)
	}
	return t
}

// Table renders the WDB curves in the figure layout.
func (r ScenarioResult) Table() *stats.Table {
	return r.gridTable(" [s]", func(c ScenarioCurve, i int) string { return fmt.Sprintf("%.4f", c.WDB.Y[i]) })
}

// LayerTable renders the tree layer counts in the figure layout — the
// Tables I–III view: under the capacity-aware scheme the fanout bound
// shrinks with load and the tree grows taller; regulated trees do not
// depend on load.
func (r ScenarioResult) LayerTable() *stats.Table {
	return r.gridTable("", func(c ScenarioCurve, i int) string { return fmt.Sprintf("%d", c.Layers[i]) })
}

// Summary gives the one-line outcome: the winning combo at the heaviest
// load, plus the churn disruption totals when membership was dynamic.
func (r ScenarioResult) Summary() string {
	if len(r.Loads) == 0 || len(r.Curves) == 0 {
		return fmt.Sprintf("scenario %s: empty sweep", r.Scenario.Name)
	}
	last := len(r.Loads) - 1
	best := 0
	for i, c := range r.Curves {
		if c.WDB.Y[last] < r.Curves[best].WDB.Y[last] {
			best = i
		}
	}
	out := fmt.Sprintf("scenario %s: best at load %.2f is %v (WDB %.4fs); %d deliveries",
		r.Scenario.Name, r.Loads[last], r.Curves[best].Combo, r.Curves[best].WDB.Y[last],
		r.Delivered)
	if r.Joins+r.Leaves > 0 {
		out += fmt.Sprintf("; churn: %d joins, %d leaves, %d regrafts, %d packets lost",
			r.Joins, r.Leaves, r.Regrafts, r.Lost)
	}
	if r.Reopts+r.ReoptRejected+r.ReoptMoves > 0 {
		out += fmt.Sprintf("; reopt: %d accepted, %d rejected passes, %d members moved",
			r.Reopts, r.ReoptRejected, r.ReoptMoves)
	}
	if r.HasFaults() {
		out += fmt.Sprintf("; faults: %d packets lost to fault events (%d at partition cuts)",
			r.FaultLost, r.CutLost)
	}
	return out
}

// SchemaVersion is stamped into every machine-readable harness record —
// sweep records, fleet manifests, and fleet combo results. Decoders
// reject records whose version is missing or unknown instead of
// misreading a future layout; bump it on any breaking field change.
const SchemaVersion = 1

// ScenarioRecord is the machine-readable sweep record, the structured
// counterpart of Table/Summary so bench and CI tooling stops scraping
// text tables.
type ScenarioRecord struct {
	SchemaVersion int                   `json:"schema_version"`
	Scenario      string                `json:"scenario"`
	Kind          string                `json:"kind"`
	Loads         []float64             `json:"loads"`
	Delivered     uint64                `json:"delivered"`
	Joins         int                   `json:"joins,omitempty"`
	Leaves        int                   `json:"leaves,omitempty"`
	Regrafts      int                   `json:"regrafts,omitempty"`
	Lost          uint64                `json:"lost,omitempty"`
	Reopts        int                   `json:"reopts,omitempty"`
	Moves         int                   `json:"reopt_moves,omitempty"`
	FaultLost     uint64                `json:"fault_lost,omitempty"`
	CutLost       uint64                `json:"cut_lost,omitempty"`
	Shards        int                   `json:"shards,omitempty"`
	Curves        []ScenarioCurveRecord `json:"curves"`
}

// ScenarioCurveRecord is one combo's slice of a ScenarioRecord.
type ScenarioCurveRecord struct {
	Combo      string      `json:"combo"`
	Strategy   string      `json:"strategy,omitempty"`
	WDB        []float64   `json:"wdb"`
	MeanDelay  []float64   `json:"mean_delay"`
	Layers     []int       `json:"layers,omitempty"`
	Bound      []float64   `json:"bound,omitempty"`
	Violations int         `json:"violations"`
	Lost       []uint64    `json:"lost,omitempty"`
	Reopts     int         `json:"reopts,omitempty"`
	Moves      int         `json:"reopt_moves,omitempty"`
	WindowSec  float64     `json:"window_sec,omitempty"`
	WindowMax  [][]float64 `json:"window_max,omitempty"`
	// Faults nests the per-load fault outcomes (reusing the core record's
	// JSON shape); CutLost is the per-load partition-drop tally.
	Faults  [][]core.FaultOutcome `json:"faults,omitempty"`
	CutLost []uint64              `json:"cut_lost,omitempty"`
	// Sharded-execution diagnostics per load (absent for sequential runs).
	Shards         []int     `json:"shards,omitempty"`
	Epochs         []uint64  `json:"epochs,omitempty"`
	CrossShardMsgs []uint64  `json:"cross_shard_msgs,omitempty"`
	StallShare     []float64 `json:"stall_share,omitempty"`
}

// JSON renders the sweep as an indented machine-readable record: per-combo
// max delay, mean delay, layer counts, theory bound, bound violations, and
// churn losses over the load grid.
func (r ScenarioResult) JSON() ([]byte, error) {
	kind := string(r.Scenario.Kind)
	if kind == "" {
		kind = string(scenario.KindMultiGroup)
	}
	rec := ScenarioRecord{
		SchemaVersion: SchemaVersion,
		Scenario:      r.Scenario.Name,
		Kind:          kind,
		Loads:         r.Loads,
		Delivered:     r.Delivered,
		Joins:         r.Joins,
		Leaves:        r.Leaves,
		Regrafts:      r.Regrafts,
		Lost:          r.Lost,
		Reopts:        r.Reopts,
		Moves:         r.ReoptMoves,
		FaultLost:     r.FaultLost,
		CutLost:       r.CutLost,
		Shards:        r.Shards,
	}
	for _, c := range r.Curves {
		rec.Curves = append(rec.Curves, ScenarioCurveRecord{
			Combo:          c.Combo.String(),
			Strategy:       strategyName(r.Scenario, c.Combo),
			WDB:            c.WDB.Y,
			MeanDelay:      c.MeanDelay.Y,
			Layers:         c.Layers,
			Bound:          c.Bound,
			Violations:     c.Violations,
			Lost:           c.Lost,
			WindowSec:      c.WindowSec,
			WindowMax:      c.WindowMax,
			Faults:         c.Faults,
			CutLost:        c.CutLost,
			Shards:         c.Shards,
			Epochs:         c.Epochs,
			CrossShardMsgs: c.CrossShardMsgs,
			StallShare:     c.StallShare,
		})
	}
	return json.MarshalIndent(rec, "", "  ")
}

// checkSchemaVersion probes a harness JSON record's schema_version field
// and rejects a missing or unknown version before the caller decodes the
// body — the guard every harness record decoder shares.
func checkSchemaVersion(data []byte) error {
	var probe struct {
		SchemaVersion *int `json:"schema_version"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return fmt.Errorf("harness: record does not parse: %w", err)
	}
	if probe.SchemaVersion == nil {
		return fmt.Errorf("harness: record has no schema_version (want %d)", SchemaVersion)
	}
	if *probe.SchemaVersion != SchemaVersion {
		return fmt.Errorf("harness: record schema_version %d not supported (want %d)",
			*probe.SchemaVersion, SchemaVersion)
	}
	return nil
}

// DecodeScenarioJSON parses a record produced by ScenarioResult.JSON. It
// rejects records whose schema_version is missing or unknown, so tooling
// fails loudly on a layout it was not built for.
func DecodeScenarioJSON(data []byte) (ScenarioRecord, error) {
	if err := checkSchemaVersion(data); err != nil {
		return ScenarioRecord{}, err
	}
	var rec ScenarioRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return ScenarioRecord{}, fmt.Errorf("harness: scenario record does not parse: %w", err)
	}
	return rec, nil
}
