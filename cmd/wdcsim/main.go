// Command wdcsim runs the paper's experiments and prints the same rows and
// series the evaluation section reports, plus any registered scenario from
// the declarative scenario layer. Every sweep — a paper figure or table
// named by -exp, or a registry entry named by -scenario — goes through the
// same sweep call (runSweep), so every sweep flag (-json, -fleet,
// -strategy, -shards, -snapshot-diff, ...) applies to both.
//
// Usage:
//
//	wdcsim -exp fig4b                 # one experiment at paper scale
//	wdcsim -exp fig6a -hosts 200      # reduced population
//	wdcsim -exp all -quick            # every experiment, reduced scale
//	wdcsim -exp fig4a -adaptive       # add the adaptive algorithm's curve
//	wdcsim -exp fig6a -quick -json    # a paper figure as a JSON record
//	wdcsim -list-scenarios            # show the scenario registry
//	wdcsim -scenario waxman-zipf-16   # run one registered scenario
//	wdcsim -scenario churn-waxman-16  # dynamic membership under churn
//	wdcsim -scenario all -quick       # smoke every scenario, reduced scale
//	wdcsim -scenario ring-sparse -json  # machine-readable results
//	wdcsim -scenario waxman-zipf-64 -shards 8  # sharded 10k-host session
//	wdcsim -scenario spt-waxman-16    # overlay-strategy comparison
//	wdcsim -scenario waxman-zipf-16 -strategy spt  # force one strategy
//	wdcsim -scenario reopt-churn-waxman-16  # online tree re-optimization
//	wdcsim -scenario outage-waxman-16       # domain outage + partition/heal
//	wdcsim -scenario epoch-churn-waxman-16  # mass-leave epochs under churn
//	wdcsim -scenario waxman-zipf-64 -fleet 4 -fleet-dir /tmp/sweep  # distributed sweep
//	wdcsim -scenario waxman-zipf-16 -snapshot-diff  # checkpoint/restore differential
//
// Experiments: fig2, fig4a, fig4b, fig4c, fig6a, fig6b, fig6c, table1,
// table2, table3, rhostar, ratio, all. The fig4/fig6/table ids name the
// registry entries paper-fig4 … paper-fig6c (-exp fig6b is -scenario
// paper-fig6b under the paper's title; table1–3 run the fig6 entries at a
// 1 ms horizon — layer counts are fixed at build time — and print the
// layer table). fig2, rhostar and ratio are not sweeps and take no sweep
// flags.
//
// -fleet N farms the sweep's (load, combo) cells to N worker processes
// over a shared work directory (-fleet-dir; a temporary directory when
// unset). The merged result is byte-identical to the in-process sweep,
// and a sweep killed partway resumes from the same -fleet-dir without
// re-running completed combos. -fleet-worker is the internal worker entry
// point the parent spawns.
//
// -shards N (default GOMAXPROCS) runs each multi-group session as a
// sharded conservative-parallel simulation; -shards auto probes candidate
// counts up to GOMAXPROCS with short runs and keeps the one with the lowest
// barrier-stall share (1 on one core). Physics are identical to a one-shard
// run (deliveries, losses, worst-case delays), so it is purely a wall-clock
// lever for big sessions; a sharded run's text output ends with the per-
// shard account (epochs, stall share, events and active epochs per shard).
// Shard runners are bounded to GOMAXPROCS process-wide, so -workers and
// -shards together never oversubscribe the cores: a sweep whose pool
// already fills them runs each sharded cell's epochs inline. What
// depends on the shard count: the reported mean delay's last few bits
// (per-shard Welford accumulators merge in shard order) and, in -json,
// each curve's shards, epochs, cross_shard_msgs and stall_share. Since
// -shards defaults to GOMAXPROCS, output differs across machines unless
// the count is fixed; only -shards 1 output is comparable with a
// pins.json seed1 row (internal/harness/testdata).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"

	"repro/internal/des"
	"repro/internal/harness"
	"repro/internal/scenario"
	"repro/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable CLI body: flags parse from args, output goes to the
// given writers, and the exit code is returned instead of os.Exit-ed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wdcsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp           = fs.String("exp", "all", "experiment id (fig2, fig4a-c, fig6a-c, table1-3, rhostar, ratio, all)")
		scenarioName  = fs.String("scenario", "", "run a registered scenario instead of -exp (or 'all')")
		strategyName  = fs.String("strategy", "", "force every regulated combo of a sweep onto this overlay strategy (dsct, nice, spt, greedy)")
		listScenarios = fs.Bool("list-scenarios", false, "list the registered scenarios and exit")
		jsonOut       = fs.Bool("json", false, "emit sweep results as JSON")
		hosts         = fs.Int("hosts", 0, "override multi-group host count (default 665)")
		seed          = fs.Uint64("seed", 1, "random seed")
		quick         = fs.Bool("quick", false, "reduced-scale sweep (-exp: 120 hosts, 5 loads, 13 s; -scenario: the entry's own reduced form)")
		adaptive      = fs.Bool("adaptive", false, "add the adaptive algorithm's curve to a sweep that has none")
		durSec        = fs.Float64("duration", 0, "override per-run simulated seconds")
		workers       = fs.Int("workers", 0, "sweep worker pool size (default GOMAXPROCS; 1 runs the points in order)")
		shardsFlag    = fs.String("shards", "", "per-run shard count for multi-group sessions (1 = one engine; 'auto' tunes by measurement; default GOMAXPROCS)")
		fleetN        = fs.Int("fleet", 0, "farm the sweep to this many worker processes")
		fleetDir      = fs.String("fleet-dir", "", "shared work directory for -fleet (default: a temporary directory; set it to make the sweep resumable)")
		fleetWorker   = fs.String("fleet-worker", "", "internal: run one fleet worker against this work directory and exit")
		snapshotDiff  = fs.Bool("snapshot-diff", false, "check checkpoint/restore bit-identity for every combo instead of sweeping")
		cpuProfile    = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile    = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := checkFlags(*hosts, *durSec, *workers, *fleetN); err != nil {
		fmt.Fprintf(stderr, "wdcsim: %v\n", err)
		return 2
	}

	if *fleetWorker != "" {
		if err := harness.RunFleetWorker(*fleetWorker); err != nil {
			fmt.Fprintf(stderr, "wdcsim: fleet worker: %v\n", err)
			return 1
		}
		return 0
	}
	if *listScenarios {
		printScenarios(stdout)
		return 0
	}

	// -shards: a count, "auto" (measure candidate counts, keep the one
	// with the lowest barrier-stall share), or empty for GOMAXPROCS.
	shards, autoShards := runtime.GOMAXPROCS(0), false
	switch *shardsFlag {
	case "", "0":
	case "auto":
		autoShards = true
	default:
		n, err := strconv.Atoi(*shardsFlag)
		if err != nil || n < 1 {
			fmt.Fprintf(stderr, "wdcsim: -shards wants a positive count or 'auto', got %q\n", *shardsFlag)
			return 2
		}
		shards = n
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "wdcsim: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "wdcsim: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "wdcsim: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "wdcsim: %v\n", err)
			}
		}()
	}

	// Sweeps resolve their own grid/duration, so only pass what the user
	// explicitly overrode on the command line.
	opts := harness.Options{Seed: *seed, Workers: *workers,
		NumHosts: *hosts, Shards: shards, AutoShards: autoShards, Strategy: *strategyName}
	if *durSec > 0 {
		opts.Duration = des.Seconds(*durSec)
	}

	// The sweep-only flag in force, if any: the non-sweep artefacts refuse it.
	sweepFlag := ""
	switch {
	case *jsonOut:
		sweepFlag = "-json"
	case *strategyName != "":
		sweepFlag = "-strategy"
	case *fleetN > 0 || *fleetDir != "":
		sweepFlag = "-fleet"
	case *snapshotDiff:
		sweepFlag = "-snapshot-diff"
	}

	var jobs []job
	if *scenarioName != "" {
		names := []string{*scenarioName}
		if *scenarioName == "all" {
			names = scenario.Names()
		}
		for _, name := range names {
			sc, err := scenario.Lookup(name)
			if err != nil {
				fmt.Fprintf(stderr, "wdcsim: %v\n", err)
				return 2
			}
			if *quick {
				sc = sc.Quick()
			}
			jobs = append(jobs, job{sc: sc, opts: opts, experiment: experiment{
				title: fmt.Sprintf("scenario %s — %s", sc.Name, sc.Description)}})
		}
	} else {
		for _, e := range experiments {
			if *exp != "all" && *exp != e.id {
				continue
			}
			j := job{experiment: e, opts: opts}
			if e.artefact != nil && sweepFlag != "" {
				fmt.Fprintf(stderr, "wdcsim: %s applies to sweeps only, not to -exp %s (fig2, rhostar and ratio are not sweeps; -exp all includes them)\n", sweepFlag, e.id)
				return 2
			}
			if e.artefact == nil {
				j.sc = scenario.MustLookup(e.scenario)
				if *quick {
					// harness.Quick's grid as explicit overrides: the scale
					// EXPERIMENTS.md §1 records its quick numbers at.
					q := harness.Quick(*seed)
					j.opts.Loads = q.Loads
					if j.opts.NumHosts == 0 {
						j.opts.NumHosts = q.NumHosts
					}
					if j.opts.Duration == 0 {
						j.opts.Duration = q.Duration
					}
				}
				if e.layers {
					j.opts.Duration = des.Millisecond
				}
			}
			jobs = append(jobs, j)
		}
		if len(jobs) == 0 {
			fmt.Fprintf(stderr, "wdcsim: unknown experiment %q\n", *exp)
			fs.Usage()
			return 2
		}
	}

	var fleet *harness.FleetOptions
	if *fleetN > 0 {
		fleet = &harness.FleetOptions{Workers: *fleetN, Dir: *fleetDir}
	}
	isAdaptive := func(c scenario.Combo) bool { return c.Scheme == "adaptive" }
	for _, j := range jobs {
		if j.artefact != nil {
			j.artefact(stdout)
			continue
		}
		if *adaptive && !slices.ContainsFunc(j.sc.Combos, isAdaptive) {
			j.sc.Combos = append(slices.Clone(j.sc.Combos), scenario.Combo{Scheme: "adaptive"})
		}
		if *snapshotDiff {
			if err := runSnapshotDiff(stdout, j.sc, j.opts); err != nil {
				fmt.Fprintf(stderr, "wdcsim: %v\n", err)
				return 1
			}
			continue
		}
		if fleet != nil && *fleetDir != "" && len(jobs) > 1 {
			// One sweep per directory: "-scenario all" gets a
			// sub-directory per scenario so manifests never collide.
			fleet.Dir = filepath.Join(*fleetDir, j.sc.Name)
		}
		if err := runSweep(stdout, j, *jsonOut, fleet); err != nil {
			fmt.Fprintf(stderr, "wdcsim: %v\n", err)
			return 1
		}
	}
	return 0
}

// checkFlags rejects the numeric flag values no run can take, so bad input
// exits 2 with one line instead of a panic mid-sweep or a silent default.
// Zero keeps each flag's default.
func checkFlags(hosts int, durSec float64, workers, fleet int) error {
	switch durErr := scenario.CheckSeconds(durSec); {
	case hosts < 0 || hosts == 1:
		return fmt.Errorf("-hosts %d: a session needs at least two hosts", hosts)
	case durErr != nil:
		return fmt.Errorf("-duration %w", durErr)
	case workers < 0:
		return fmt.Errorf("-workers %d must not be negative", workers)
	case fleet < 0:
		return fmt.Errorf("-fleet %d must not be negative", fleet)
	}
	return nil
}

// experiment is one -exp id: a figure or table of the paper's evaluation,
// naming the registry entry that reproduces it, or a non-sweep artefact.
type experiment struct {
	id, title string
	scenario  string          // registry entry ("" for an artefact)
	layers    bool            // print the layer table only (Tables I–III)
	artefact  func(io.Writer) // fig2, rhostar, ratio
}

// job is one unit of CLI work: the experiment (or -scenario entry, which
// carries only a title) with its resolved scenario and options.
type job struct {
	experiment
	sc   scenario.Scenario
	opts harness.Options
}

// experiments are the -exp ids in "all" order.
var experiments = []experiment{
	{id: "fig2", artefact: runFig2},
	{id: "fig4a", title: "Fig. 4(a) — three 64 kbps audio flows", scenario: "paper-fig4"},
	{id: "fig4b", title: "Fig. 4(b) — three 1.5 Mbps video flows", scenario: "paper-fig4b"},
	{id: "fig4c", title: "Fig. 4(c) — one video + two audio flows", scenario: "paper-fig4c"},
	{id: "fig6a", title: "Fig. 6(a) — three audio groups", scenario: "paper-fig6"},
	{id: "fig6b", title: "Fig. 6(b) — three video groups", scenario: "paper-fig6b"},
	{id: "fig6c", title: "Fig. 6(c) — heterogeneous groups", scenario: "paper-fig6c"},
	{id: "table1", title: "Table I — layer counts, audio groups", scenario: "paper-fig6", layers: true},
	{id: "table2", title: "Table II — layer counts, video groups", scenario: "paper-fig6b", layers: true},
	{id: "table3", title: "Table III — layer counts, heterogeneous groups", scenario: "paper-fig6c", layers: true},
	{id: "rhostar", artefact: runRhoStar},
	{id: "ratio", artefact: runRatio},
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
}

func printScenarios(w io.Writer) {
	t := stats.NewTable("name", "kind", "topology", "routers", "hosts", "groups", "membership", "churn", "faults", "description")
	for _, sc := range scenario.All() {
		kind := string(sc.Kind)
		if kind == "" {
			kind = string(scenario.KindMultiGroup)
		}
		gen, _ := sc.Topology.Generator() // registration validated it
		membership := sc.Membership.Kind
		if membership == "" {
			membership = "all"
		}
		churn := sc.Churn.Kind
		if churn == "" {
			churn = "-"
		}
		faults := "-"
		if len(sc.Faults) > 0 {
			faults = fmt.Sprintf("%d", len(sc.Faults))
		}
		// Every family's router count is seed-independent.
		t.AddRow(sc.Name, kind, gen.Name(), fmt.Sprintf("%d", gen.Build(1).NumNodes()), fmt.Sprintf("%d", sc.Hosts()),
			fmt.Sprintf("%d", sc.GroupCount()), membership, churn, faults, sc.Description)
	}
	fmt.Fprint(w, t)
}

// runSnapshotDiff runs the checkpoint/restore differential over the
// scenario's combos and prints one verdict line per combo.
func runSnapshotDiff(w io.Writer, sc scenario.Scenario, opts harness.Options) error {
	header(w, fmt.Sprintf("snapshot diff %s — run-to-end vs checkpoint at T/2 + restore", sc.Name))
	lines, err := harness.SnapshotDiff(sc, opts)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
	return err
}

// runSweep is the one place a sweep runs: in process or farmed to a fleet,
// then rendered as JSON, as the layer table alone, or as the full report.
func runSweep(w io.Writer, j job, jsonOut bool, fleet *harness.FleetOptions) error {
	var r harness.ScenarioResult
	var err error
	if fleet != nil {
		r, err = harness.FleetSweep(j.sc, j.opts, *fleet)
	} else {
		r, err = harness.ScenarioSweep(j.sc, j.opts)
	}
	if err != nil {
		return err
	}
	if jsonOut {
		data, err := r.JSON()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", data)
		return nil
	}
	header(w, j.title)
	if j.layers {
		fmt.Fprint(w, r.LayerTable())
		return nil
	}
	fmt.Fprint(w, r.Table())
	last := r.Loads[len(r.Loads)-1]
	fmt.Fprintf(w, "\nPer-strategy comparison at load %.2f:\n", last)
	fmt.Fprint(w, r.StrategyTable())
	fmt.Fprintln(w, "\nLayer counts (the Tables I–III view):")
	fmt.Fprint(w, r.LayerTable())
	if r.HasFaults() {
		fmt.Fprintf(w, "\nFault events and recovery at load %.2f:\n", last)
		fmt.Fprint(w, r.FaultTable())
	}
	if r.Shards > 1 {
		fmt.Fprintf(w, "\nSharded execution at load %.2f:\n", last)
		fmt.Fprint(w, r.ShardTable())
	}
	fmt.Fprintf(w, "\nEvents per delivery by kind at load %.2f:\n", last)
	fmt.Fprint(w, r.CensusTable())
	fmt.Fprint(w, r.CrossoverSummary())
	fmt.Fprintln(w, r.Summary())
	return nil
}

func runFig2(w io.Writer) {
	header(w, "Fig. 2 — (σ, ρ, λ) regulator operation (σ=10kb, ρ=250kbps, C=1Mbps)")
	pts := harness.Fig2Trace(10_000, 250_000, 1_000_000, des.Seconds(0.5), 26)
	fmt.Fprint(w, harness.Fig2Table(pts))
}

func runRhoStar(w io.Writer) {
	header(w, "Theorems 3/4 — rate threshold ρ* (paper: 0.73C homog, 0.79C hetero)")
	fmt.Fprint(w, harness.RhoStarTable(10))
}

func runRatio(w io.Writer) {
	header(w, "Theorems 5/6 — guaranteed Dg/D̂g improvement bounds (K=3)")
	fmt.Fprint(w, harness.ImprovementTable(3, nil))
}
