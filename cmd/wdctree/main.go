// Command wdctree builds and inspects the overlay multicast trees: the
// Fig. 5 backbone, DSCT/NICE hierarchies, their capacity-aware variants,
// and the Lemma 2 height bound.
//
// Usage:
//
//	wdctree -print-backbone
//	wdctree -heights -hosts 665
//	wdctree -build dsct -hosts 300 -k 3
//	wdctree -build flat -fanout 3
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/calculus"
	"repro/internal/overlay"
	"repro/internal/stats"
	"repro/internal/topo"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable CLI body: flags parse from args, output goes to the
// given writers, and the exit code is returned instead of os.Exit-ed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wdctree", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		printBackbone = fs.Bool("print-backbone", false, "print the Fig. 5 backbone topology")
		heights       = fs.Bool("heights", false, "measured tree heights vs the Lemma 2 bound")
		build         = fs.String("build", "", "build one tree and print metrics: dsct, nice, flat, flatblind")
		hosts         = fs.Int("hosts", 665, "host count")
		k             = fs.Int("k", 3, "cluster parameter")
		fanout        = fs.Int("fanout", 3, "fanout for flat trees")
		seed          = fs.Uint64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *hosts < 1 {
		fmt.Fprintf(stderr, "wdctree: -hosts %d must be at least 1\n", *hosts)
		return 2
	}
	if *k < 2 {
		fmt.Fprintf(stderr, "wdctree: -k %d must be at least 2\n", *k)
		return 2
	}
	if *fanout < 1 {
		fmt.Fprintf(stderr, "wdctree: -fanout %d must be at least 1\n", *fanout)
		return 2
	}

	switch {
	case *printBackbone:
		doBackbone(stdout)
	case *heights:
		if err := doHeights(stdout, *hosts, *k, *seed); err != nil {
			fmt.Fprintf(stderr, "wdctree: %v\n", err)
			return 1
		}
	case *build != "":
		if err := doBuild(stdout, *build, *hosts, *k, *fanout, *seed); err != nil {
			fmt.Fprintf(stderr, "wdctree: %v\n", err)
			return 1
		}
	default:
		fs.Usage()
		return 2
	}
	return 0
}

func doBackbone(w io.Writer) {
	g := topo.Backbone19()
	fmt.Fprintf(w, "Fig. 5 backbone: %d routers, %d links, connected=%v\n",
		g.NumNodes(), g.NumEdges(), g.Connected())
	t := stats.NewTable("router", "degree", "coord", "links (to:delay)")
	for v := 0; v < g.NumNodes(); v++ {
		links := ""
		for i, e := range g.Neighbors(topo.NodeID(v)) {
			if i > 0 {
				links += " "
			}
			links += fmt.Sprintf("%d:%v", e.To, e.Delay)
		}
		c := g.Coord(topo.NodeID(v))
		t.AddRow(fmt.Sprintf("%d", v), fmt.Sprintf("%d", g.Degree(topo.NodeID(v))),
			fmt.Sprintf("(%.0f,%.0f)", c.X, c.Y), links)
	}
	fmt.Fprint(w, t)
}

func network(hosts int, seed uint64) (*topo.Network, []int) {
	net := topo.NewNetwork(topo.Backbone19(), topo.NetworkConfig{NumHosts: hosts, Seed: seed})
	members := make([]int, hosts)
	for i := range members {
		members[i] = i
	}
	return net, members
}

func doHeights(w io.Writer, hosts, k int, seed uint64) error {
	net, members := network(hosts, seed)
	t := stats.NewTable("tree", "layers", "height", "Lemma2 bound", "max fanout", "stretch")
	for _, kind := range []string{"dsct", "nice"} {
		var tr *overlay.Tree
		var err error
		cfg := overlay.Config{K: k, Seed: seed}
		if kind == "dsct" {
			tr, err = overlay.BuildDSCT(net, members, 0, cfg)
		} else {
			tr, err = overlay.BuildNICE(net, members, 0, cfg)
		}
		if err != nil {
			return err
		}
		bound := calculus.DSCTHeightBoundMax(hosts, k)
		t.AddRow(kind, fmt.Sprintf("%d", tr.Layers()), fmt.Sprintf("%d", tr.Height()),
			fmt.Sprintf("%d", bound), fmt.Sprintf("%d", tr.MaxFanout()),
			fmt.Sprintf("%.2f", tr.Stretch(net)))
	}
	fmt.Fprint(w, t)
	return nil
}

func doBuild(w io.Writer, kind string, hosts, k, fanout int, seed uint64) error {
	net, members := network(hosts, seed)
	var tr *overlay.Tree
	var err error
	switch kind {
	case "dsct":
		tr, err = overlay.BuildDSCT(net, members, 0, overlay.Config{K: k, Seed: seed})
	case "nice":
		tr, err = overlay.BuildNICE(net, members, 0, overlay.Config{K: k, Seed: seed})
	case "flat":
		tr, err = overlay.BuildFlat(net, members, 0, fanout)
	case "flatblind":
		tr, err = overlay.BuildFlatBlind(net, members, 0, fanout, seed)
	default:
		return fmt.Errorf("unknown tree kind %q", kind)
	}
	if err != nil {
		return err
	}
	if err := tr.Validate(); err != nil {
		return fmt.Errorf("built tree invalid: %v", err)
	}
	maxStress, avgStress := tr.LinkStress(net)
	fmt.Fprintf(w, "%s tree over %d hosts:\n", kind, hosts)
	fmt.Fprintf(w, "  layers        %d\n", tr.Layers())
	fmt.Fprintf(w, "  height (hops) %d\n", tr.Height())
	fmt.Fprintf(w, "  max fanout    %d\n", tr.MaxFanout())
	fmt.Fprintf(w, "  avg fanout    %.2f\n", tr.AvgFanout())
	fmt.Fprintf(w, "  stretch       %.2f\n", tr.Stretch(net))
	fmt.Fprintf(w, "  link stress   max %d, avg %.2f\n", maxStress, avgStress)
	return nil
}
