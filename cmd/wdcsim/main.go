// Command wdcsim runs the paper's experiments and prints the same rows and
// series the evaluation section reports, plus any registered scenario from
// the declarative scenario layer.
//
// Usage:
//
//	wdcsim -exp fig4b                 # one experiment at paper scale
//	wdcsim -exp fig6a -hosts 200      # reduced population
//	wdcsim -exp all -quick            # every experiment, reduced scale
//	wdcsim -exp fig4a -adaptive       # add the adaptive algorithm's curve
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
// table2, table3, rhostar, ratio, all.
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
// counts with short runs and keeps the one with the lowest barrier-stall
// share. Physics are identical to a one-shard run (deliveries,
// losses, worst-case delays), so it is purely a wall-clock lever for big
// sessions. The one shard-count-
// dependent output is the reported mean delay's last few bits (per-shard
// Welford accumulators merge in shard order); pass -shards 1 when
// byte-identical output across machines matters more than speed.
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
	"strconv"

	"repro/internal/des"
	"repro/internal/harness"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/traffic"
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
		strategyName  = fs.String("strategy", "", "force every regulated combo of a scenario run onto this overlay strategy (dsct, nice, spt, greedy)")
		listScenarios = fs.Bool("list-scenarios", false, "list the registered scenarios and exit")
		jsonOut       = fs.Bool("json", false, "emit scenario results as JSON (scenario runs only)")
		hosts         = fs.Int("hosts", 0, "override multi-group host count (default 665)")
		seed          = fs.Uint64("seed", 1, "random seed")
		quick         = fs.Bool("quick", false, "reduced-scale sweep (120 hosts, 5 loads)")
		adaptive      = fs.Bool("adaptive", false, "add the adaptive algorithm's curve to fig4 output")
		durSec        = fs.Float64("duration", 0, "override per-run simulated seconds")
		sequential    = fs.Bool("sequential", false, "run sweep points sequentially (debugging)")
		workers       = fs.Int("workers", 0, "sweep worker pool size (default GOMAXPROCS)")
		shardsFlag    = fs.String("shards", "", "per-run shard count for multi-group sessions (1 = one engine; 'auto' tunes by measurement; default GOMAXPROCS)")
		fleetN        = fs.Int("fleet", 0, "farm the scenario sweep to this many worker processes (scenario runs only)")
		fleetDir      = fs.String("fleet-dir", "", "shared work directory for -fleet (default: a temporary directory; set it to make the sweep resumable)")
		fleetWorker   = fs.String("fleet-worker", "", "internal: run one fleet worker against this work directory and exit")
		snapshotDiff  = fs.Bool("snapshot-diff", false, "check checkpoint/restore bit-identity for every combo of the scenario instead of sweeping (scenario runs only)")
		cpuProfile    = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile    = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
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

	if *scenarioName != "" {
		// Scenario sweeps resolve their own grid/duration, so only pass
		// what the user explicitly overrode on the command line.
		opts := harness.Options{Seed: *seed, Sequential: *sequential, Workers: *workers,
			NumHosts: *hosts, Shards: shards, AutoShards: autoShards, Strategy: *strategyName}
		if *durSec > 0 {
			opts.Duration = des.Seconds(*durSec)
			opts.SingleHopDuration = des.Seconds(*durSec)
		}
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
			if *snapshotDiff {
				if err := runSnapshotDiff(stdout, sc, opts); err != nil {
					fmt.Fprintf(stderr, "wdcsim: %v\n", err)
					return 1
				}
				continue
			}
			var fleet *harness.FleetOptions
			if *fleetN > 0 {
				fleet = &harness.FleetOptions{Workers: *fleetN, Dir: *fleetDir}
				if *fleetDir != "" && len(names) > 1 {
					// One sweep per directory: "-scenario all" gets a
					// sub-directory per scenario so manifests never collide.
					fleet.Dir = filepath.Join(*fleetDir, sc.Name)
				}
			}
			if err := runScenario(stdout, sc, opts, *jsonOut, fleet); err != nil {
				fmt.Fprintf(stderr, "wdcsim: %v\n", err)
				return 1
			}
		}
		return 0
	}
	if *jsonOut {
		fmt.Fprintln(stderr, "wdcsim: -json applies to -scenario runs only")
		return 2
	}
	if *strategyName != "" {
		fmt.Fprintln(stderr, "wdcsim: -strategy applies to -scenario runs only")
		return 2
	}
	if *fleetN > 0 || *fleetDir != "" {
		fmt.Fprintln(stderr, "wdcsim: -fleet applies to -scenario runs only")
		return 2
	}
	if *snapshotDiff {
		fmt.Fprintln(stderr, "wdcsim: -snapshot-diff applies to -scenario runs only")
		return 2
	}

	opts := harness.Options{Seed: *seed, Sequential: *sequential, Workers: *workers}
	if *quick {
		opts = harness.Quick(*seed)
		opts.Sequential = *sequential
		opts.Workers = *workers
	}
	opts.Shards = shards
	if *hosts > 0 {
		opts.NumHosts = *hosts
	}
	if *durSec > 0 {
		opts.Duration = des.Seconds(*durSec)
		opts.SingleHopDuration = des.Seconds(*durSec)
	}
	opts.IncludeAdaptive = *adaptive

	runners := map[string]func(){
		"fig2":    func() { runFig2(stdout) },
		"fig4a":   func() { runFig4(stdout, "Fig. 4(a) — three 64 kbps audio flows", traffic.MixAudio, opts) },
		"fig4b":   func() { runFig4(stdout, "Fig. 4(b) — three 1.5 Mbps video flows", traffic.MixVideo, opts) },
		"fig4c":   func() { runFig4(stdout, "Fig. 4(c) — one video + two audio flows", traffic.MixHetero, opts) },
		"fig6a":   func() { runFig6(stdout, "Fig. 6(a) — three audio groups", traffic.MixAudio, opts) },
		"fig6b":   func() { runFig6(stdout, "Fig. 6(b) — three video groups", traffic.MixVideo, opts) },
		"fig6c":   func() { runFig6(stdout, "Fig. 6(c) — heterogeneous groups", traffic.MixHetero, opts) },
		"table1":  func() { runTable(stdout, "Table I — layer counts, audio groups", traffic.MixAudio, opts) },
		"table2":  func() { runTable(stdout, "Table II — layer counts, video groups", traffic.MixVideo, opts) },
		"table3":  func() { runTable(stdout, "Table III — layer counts, heterogeneous groups", traffic.MixHetero, opts) },
		"rhostar": func() { runRhoStar(stdout) },
		"ratio":   func() { runRatio(stdout) },
	}
	order := []string{"fig2", "fig4a", "fig4b", "fig4c", "fig6a", "fig6b", "fig6c",
		"table1", "table2", "table3", "rhostar", "ratio"}

	if *exp == "all" {
		for _, id := range order {
			runners[id]()
		}
		return 0
	}
	runExp, ok := runners[*exp]
	if !ok {
		fmt.Fprintf(stderr, "wdcsim: unknown experiment %q\n", *exp)
		fs.Usage()
		return 2
	}
	runExp()
	return 0
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
		topoKind := sc.Topology.Kind
		routers := fmt.Sprintf("%d", sc.Topology.Nodes)
		if topoKind == "" {
			topoKind = "backbone19"
			routers = "19"
		}
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
		hosts, groups := fmt.Sprintf("%d", sc.Hosts()), fmt.Sprintf("%d", sc.GroupCount())
		if sc.Kind == scenario.KindSingleHop {
			hosts, groups, topoKind, membership, routers = "-", "-", "-", "-", "-"
		}
		t.AddRow(sc.Name, kind, topoKind, routers, hosts, groups, membership, churn, faults, sc.Description)
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

func runScenario(w io.Writer, sc scenario.Scenario, opts harness.Options, jsonOut bool, fleet *harness.FleetOptions) error {
	var r harness.ScenarioResult
	var err error
	if fleet != nil {
		r, err = harness.FleetSweep(sc, opts, *fleet)
	} else {
		r, err = harness.ScenarioSweep(sc, opts)
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
	header(w, fmt.Sprintf("scenario %s — %s", sc.Name, sc.Description))
	fmt.Fprint(w, r.Table())
	if sc.Kind != scenario.KindSingleHop {
		fmt.Fprintf(w, "\nPer-strategy comparison at load %.2f:\n", r.Loads[len(r.Loads)-1])
		fmt.Fprint(w, r.StrategyTable())
	}
	if r.HasFaults() {
		fmt.Fprintf(w, "\nFault events and recovery at load %.2f:\n", r.Loads[len(r.Loads)-1])
		fmt.Fprint(w, r.FaultTable())
	}
	fmt.Fprintln(w, r.Summary())
	return nil
}

func runFig2(w io.Writer) {
	header(w, "Fig. 2 — (σ, ρ, λ) regulator operation (σ=10kb, ρ=250kbps, C=1Mbps)")
	pts := harness.Fig2Trace(10_000, 250_000, 1_000_000, des.Seconds(0.5), 26)
	fmt.Fprint(w, harness.Fig2Table(pts))
}

func runFig4(w io.Writer, title string, mix traffic.Mix, opts harness.Options) {
	header(w, title)
	r := harness.Fig4(mix, opts)
	fmt.Fprint(w, r.Table())
	fmt.Fprintln(w, r.Summary())
}

func runFig6(w io.Writer, title string, mix traffic.Mix, opts harness.Options) {
	header(w, title)
	r := harness.Fig6(mix, opts)
	fmt.Fprint(w, r.Table())
	fmt.Fprintln(w, r.Summary())
	fmt.Fprintln(w, "\nLayer counts (feeds Tables I–III):")
	fmt.Fprint(w, r.LayerTable())
}

func runTable(w io.Writer, title string, mix traffic.Mix, opts harness.Options) {
	header(w, title)
	fmt.Fprint(w, harness.LayerSweep(mix, opts).Table())
}

func runRhoStar(w io.Writer) {
	header(w, "Theorems 3/4 — rate threshold ρ* (paper: 0.73C homog, 0.79C hetero)")
	fmt.Fprint(w, harness.RhoStarTable(10))
}

func runRatio(w io.Writer) {
	header(w, "Theorems 5/6 — guaranteed Dg/D̂g improvement bounds (K=3)")
	fmt.Fprint(w, harness.ImprovementTable(3, nil))
}
