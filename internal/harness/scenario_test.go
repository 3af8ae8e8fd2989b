package harness

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// The scenario sweep inherits the pool's determinism contract: parallel
// equals sequential bit for bit — for the paper's one-hop and six-combo
// panels as for partial membership, alternate topologies, and
// heterogeneous uplinks.
func TestScenarioSweepParallelMatchesSequential(t *testing.T) {
	for _, name := range []string{"paper-fig4c", "paper-fig6c", "waxman-zipf-16", "transit-stub-dsl-fibre"} {
		sc := scenario.MustLookup(name).Quick()

		seq := Options{Seed: 3, Workers: 1}
		a, err := ScenarioSweep(sc, seq)
		if err != nil {
			t.Fatal(err)
		}
		par := Options{Seed: 3, Workers: 3} // deliberately not a divisor
		b, err := ScenarioSweep(sc, par)
		if err != nil {
			t.Fatal(err)
		}
		if a.Delivered != b.Delivered {
			t.Fatalf("%s: delivered %d vs %d", name, a.Delivered, b.Delivered)
		}
		for ci := range a.Curves {
			for i := range a.Loads {
				if a.Curves[ci].WDB.Y[i] != b.Curves[ci].WDB.Y[i] ||
					a.Curves[ci].MeanDelay.Y[i] != b.Curves[ci].MeanDelay.Y[i] ||
					a.Curves[ci].Layers[i] != b.Curves[ci].Layers[i] {
					t.Fatalf("%s: %v at %.2f diverged between sequential and parallel",
						name, a.Curves[ci].Combo, a.Loads[i])
				}
			}
		}
	}
}

// Every registered scenario must build and run at quick scale — the same
// coverage `make scenarios` smokes from the CLI.
func TestEveryRegisteredScenarioRunsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-registry smoke; skipped in -short (the race job's quick suite)")
	}
	for _, sc := range scenario.All() {
		q := sc.Quick()
		r, err := ScenarioSweep(q, Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if r.Delivered == 0 {
			t.Fatalf("%s: no deliveries at quick scale", sc.Name)
		}
		for _, c := range r.Curves {
			for i, y := range c.WDB.Y {
				if y <= 0 {
					t.Fatalf("%s: %v WDB %v at load %.2f", sc.Name, c.Combo, y, r.Loads[i])
				}
			}
		}
	}
}

func TestScenarioSweepRejectsInvalid(t *testing.T) {
	if _, err := ScenarioSweep(scenario.Scenario{Name: "broken"}, Options{}); err == nil {
		t.Fatal("invalid scenario must be rejected")
	}
}

func TestScenarioTableAndSummary(t *testing.T) {
	r, err := ScenarioSweep(scenario.MustLookup("ring-sparse").Quick(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Table().String() == "" || r.Summary() == "" {
		t.Fatal("empty rendering")
	}
}

// TestReoptRejectedPassesReported: a sweep counts the re-optimization
// passes the hysteresis turned down beside the accepted ones — per curve
// and in total, as many as the cells' own sessions report — and its summary
// line and strategy table say so, while the sweep's JSON record leaves the
// rejected count out (its bytes are pinned).
func TestReoptRejectedPassesReported(t *testing.T) {
	sc := scenario.MustLookup("reopt-churn-waxman-16").Quick()
	opts := Options{Seed: 1, Workers: 2}
	res, err := ScenarioSweep(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := newSweepPlan(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	accepted, rejected := 0, 0
	for i := 0; i < p.cellCount(); i++ {
		r := core.NewSession(p.cfgs[i]).Run()
		accepted += r.Reopts
		rejected += r.ReoptRejected
	}
	if rejected == 0 {
		t.Fatal("the fixture rejects no re-optimization pass")
	}
	curves := 0
	for _, c := range res.Curves {
		curves += c.ReoptRejected
	}
	if res.Reopts != accepted || res.ReoptRejected != rejected || curves != rejected {
		t.Fatalf("sweep counts %d accepted and %d rejected passes (%d over its curves), its cells %d and %d",
			res.Reopts, res.ReoptRejected, curves, accepted, rejected)
	}
	if want := fmt.Sprintf("reopt: %d accepted, %d rejected passes", accepted, rejected); !strings.Contains(res.Summary(), want) {
		t.Fatalf("summary %q does not say %q", res.Summary(), want)
	}
	if table := res.StrategyTable().String(); !strings.Contains(table, "rejected") {
		t.Fatalf("strategy table has no rejected column:\n%s", table)
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("rejected")) {
		t.Fatal("the sweep's JSON record carries the rejected passes")
	}
}
