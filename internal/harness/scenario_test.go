package harness

import (
	"testing"

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
