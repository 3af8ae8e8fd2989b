// Multigroup: the paper's Simulation II scenario at reduced scale — a
// multi-group overlay network on the 19-router backbone where every host
// joins all three groups — followed by the scenario layer's
// partial-membership scale benchmark (waxman-zipf-16: 2000 hosts on a
// Waxman underlay, 16 overlapping Zipf-skewed groups), also reduced.
//
// Part 1 compares all six scheme/tree combinations of Fig. 6 at one heavy
// load and prints the worst-case multicast delays and the tree layer
// counts (the Tables I–III metric).
//
// Part 3 selects overlay strategies by name (wdc.Config.Strategy) to
// compare the paper's DSCT against the delay-weighted shortest-path and
// capacity-aware greedy trees, then runs a session with the online
// re-optimization plane rewiring the tree from measured delays mid-run.
//
// Part 4 injects correlated failures: the outage-waxman-16 scenario at
// reduced scale takes a whole router domain down mid-run (restored 1 s
// later) and bipartitions the backbone (healed), then prints each fault
// event's recovery metrics — hosts hit, orphan subtrees re-grafted,
// packets lost, and the measured time until every affected member was
// receiving again.
//
// Run with the full 665-host population via cmd/wdcsim -exp fig6a, the
// full 2000-host scenario via cmd/wdcsim -scenario waxman-zipf-16, the
// strategy comparison via cmd/wdcsim -scenario spt-waxman-16 (or any
// scenario with -strategy <name>), and the full-scale failure scenarios
// via cmd/wdcsim -scenario outage-waxman-16 / epoch-churn-waxman-16.
package main

import (
	"fmt"

	wdc "repro"
	"repro/internal/des"
)

func main() {
	const (
		hosts = 150
		load  = 0.9
	)
	fmt.Printf("Multi-group EMcast: %d hosts x 3 groups, aggregate load %.2f\n\n", hosts, load)

	// The tree family is an overlay strategy name; under capacity-aware
	// "dsct"/"nice" pick its location-aware/-blind flat builder.
	type combo struct {
		scheme   wdc.Scheme
		strategy string
	}
	combos := []combo{
		{wdc.SchemeCapacityAware, "dsct"},
		{wdc.SchemeSigmaRho, "dsct"},
		{wdc.SchemeSRL, "dsct"},
		{wdc.SchemeCapacityAware, "nice"},
		{wdc.SchemeSigmaRho, "nice"},
		{wdc.SchemeSRL, "nice"},
	}
	var specs []wdc.FlowSpec
	bestWDB, bestName := 0.0, ""
	for _, c := range combos {
		res := wdc.Run(wdc.Config{
			NumHosts: hosts,
			Mix:      wdc.MixAudio,
			Load:     load,
			Scheme:   c.scheme,
			Strategy: c.strategy,
			Duration: 15 * des.Second,
			Seed:     1,
			Specs:    specs,
		})
		specs = res.Specs
		name := fmt.Sprintf("%v %s", c.scheme, c.strategy)
		fmt.Printf("%-28s WDB %.3fs  mean %.4fs  layers %d  deliveries %d\n",
			name, res.WDB, res.MeanDelay, res.Layers, res.Delivered)
		if bestName == "" || res.WDB < bestWDB {
			bestWDB, bestName = res.WDB, name
		}
	}
	fmt.Printf("\nBest at load %.2f: %s (the paper: DSCT with the (σ,ρ,λ) regulator\n", load, bestName)
	fmt.Println("achieves the best delay performance once the load exceeds ~0.7).")

	// Part 2: the scenario layer's partial-membership scale benchmark at
	// example scale. Membership is Zipf-skewed — a few hot groups and a
	// long tail — so hosts carry only the groups they joined and the
	// per-host utilisation sits far below the all-groups worst case.
	sc := wdc.MustScenario("waxman-zipf-16").Quick()
	fmt.Printf("\nScenario %s (reduced: %d hosts x %d groups on a Waxman underlay):\n\n",
		sc.Name, sc.NumHosts, sc.GroupCount())
	groups := sc.Groups(1)
	small, large := len(groups[0].Members), len(groups[0].Members)
	for _, g := range groups {
		if len(g.Members) < small {
			small = len(g.Members)
		}
		if len(g.Members) > large {
			large = len(g.Members)
		}
	}
	fmt.Printf("Zipf membership: group sizes %d..%d of %d hosts\n\n", small, large, sc.NumHosts)
	res, err := wdc.ScenarioSweep(sc, wdc.Options{Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Print(res.Table())
	fmt.Println(res.Summary())

	// Part 3a: pluggable overlay strategies. The same session compiled
	// through each registered tree-construction strategy — DSCT's
	// proximity clusters against the delay-weighted shortest-path tree
	// and the capacity-scaled greedy fanout tree.
	fmt.Printf("\nOverlay strategies (%d hosts x 3 groups, load %.2f, (σ,ρ,λ)):\n\n", hosts, load)
	for _, strat := range wdc.Strategies() {
		r := wdc.Run(wdc.Config{
			NumHosts: hosts,
			Mix:      wdc.MixAudio,
			Load:     load,
			Scheme:   wdc.SchemeSRL,
			Strategy: strat,
			Duration: 10 * des.Second,
			Seed:     1,
		})
		fmt.Printf("%-8s WDB %.3fs  mean %.4fs  layers %d\n", strat, r.WDB, r.MeanDelay, r.Layers)
	}

	// Part 3b: online re-optimization. Start from the location-blind NICE
	// tree (plenty to improve) and let periodic measurement-driven passes
	// rewire the worst members under hysteresis.
	static := wdc.Config{
		NumHosts: hosts,
		Mix:      wdc.MixAudio,
		Load:     load,
		Scheme:   wdc.SchemeSRL,
		Strategy: "nice",
		Duration: 10 * des.Second,
		Seed:     1,
	}
	reopt := static
	reopt.Reopt = wdc.ReoptConfig{Every: des.Second, MinImprove: 0.05, MaxMoves: 3}
	a, b := wdc.Run(static), wdc.Run(reopt)
	fmt.Printf("\nOnline re-optimization on the nice tree:\n")
	fmt.Printf("static  WDB %.3fs  mean %.4fs\n", a.WDB, a.MeanDelay)
	fmt.Printf("reopt   WDB %.3fs  mean %.4fs  (%d passes accepted, %d members moved, %d lost)\n",
		b.WDB, b.MeanDelay, b.Reopts, b.ReoptMoves, b.Lost)

	// Part 4: correlated failure injection. The outage scenario at reduced
	// scale: a seeded router domain goes dark mid-run taking every attached
	// host's memberships down at once, comes back 1 s later, and a backbone
	// bipartition severs and then heals the overlay trees. Every event
	// reports its blast radius and how long recovery took.
	fsc := wdc.MustScenario("outage-waxman-16").Quick()
	fmt.Printf("\nCorrelated failures — scenario %s (reduced: %d hosts x %d groups):\n\n",
		fsc.Name, fsc.NumHosts, fsc.GroupCount())
	fres, err := wdc.ScenarioSweep(fsc, wdc.Options{Seed: 1})
	if err != nil {
		panic(err)
	}
	load2 := fres.Loads[len(fres.Loads)-1]
	for _, curve := range fres.Curves {
		outcomes := curve.Faults[len(fres.Loads)-1]
		fmt.Printf("%s at load %.2f:\n", curve.Combo, load2)
		for _, oc := range outcomes {
			fmt.Printf("  %-9s @%.1fs  hosts %-3d  regrafts %-3d  lost %-3d",
				oc.Kind, oc.AtSec, oc.Hosts, oc.Regrafts, oc.Lost)
			if oc.RecoverySec > 0 {
				fmt.Printf("  recovered in %.3fs", oc.RecoverySec)
			}
			fmt.Println()
		}
	}
	fmt.Printf("\n%d packets lost to fault events (%d at the partition cut) out of %d deliveries;\n",
		fres.FaultLost, fres.CutLost, fres.Delivered)
	fmt.Println("the paper's domain-clustered DSCT trees cross the backbone least, so they")
	fmt.Println("park the fewest subtrees when it partitions — locality is failure tolerance.")
}
