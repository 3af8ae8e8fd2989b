package harness

import (
	"encoding/json"
	"testing"

	"repro/internal/scenario"
)

// Static regulated scenarios must sit inside their closed-form bounds;
// the bound columns must be populated for the regulated combos.
func TestScenarioBoundsHoldForStaticRegulated(t *testing.T) {
	sc := scenario.MustLookup("waxman-zipf-16").Quick()
	r, err := ScenarioSweep(sc, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range r.Curves {
		for i := range r.Loads {
			if c.Bound[i] <= 0 {
				t.Fatalf("%v: no bound at load %.2f", c.Combo, r.Loads[i])
			}
			if c.WDB.Y[i] > c.Bound[i] {
				t.Fatalf("%v: WDB %v exceeds bound %v at load %.2f (static membership)",
					c.Combo, c.WDB.Y[i], c.Bound[i], r.Loads[i])
			}
		}
		if c.Violations != 0 {
			t.Fatalf("%v: %d violations under static membership", c.Combo, c.Violations)
		}
	}
}

// With Fig. 4 an ordinary two-layer tree its bound column is real: the H = 2
// case of Remark 2 / Theorem 7 must hold on every paper-scale cell of every
// panel, the heterogeneous one included, whose (σ, ρ, λ) regulators run
// Theorem 1's σ*ᵢ.
func TestTheoryBoundHoldsOnOneHop(t *testing.T) {
	for _, name := range []string{"paper-fig4", "paper-fig4b", "paper-fig4c"} {
		r, err := ScenarioSweep(scenario.MustLookup(name), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Loads) != 13 || len(r.Curves) != 2 {
			t.Fatalf("%s: %d loads x %d curves, want the paper's 13 x 2", name, len(r.Loads), len(r.Curves))
		}
		for _, c := range r.Curves {
			for i, load := range r.Loads {
				if c.Layers[i] != 2 || c.Bound[i] <= 0 || c.WDB.Y[i] > c.Bound[i] {
					t.Fatalf("%s %v at load %.2f: layers %d, WDB %v, bound %v",
						name, c.Combo, load, c.Layers[i], c.WDB.Y[i], c.Bound[i])
				}
			}
		}
	}
}

func TestScenarioResultJSON(t *testing.T) {
	r, err := ScenarioSweep(scenario.MustLookup("churn-waxman-16").Quick(), Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Scenario  string    `json:"scenario"`
		Kind      string    `json:"kind"`
		Loads     []float64 `json:"loads"`
		Delivered uint64    `json:"delivered"`
		Joins     int       `json:"joins"`
		Curves    []struct {
			Combo      string      `json:"combo"`
			WDB        []float64   `json:"wdb"`
			Bound      []float64   `json:"bound"`
			Violations int         `json:"violations"`
			Lost       []uint64    `json:"lost"`
			WindowSec  float64     `json:"window_sec"`
			WindowMax  [][]float64 `json:"window_max"`
		} `json:"curves"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("JSON record does not parse: %v", err)
	}
	if rec.Scenario != "churn-waxman-16" || rec.Kind != "multi-group" {
		t.Fatalf("record header wrong: %+v", rec)
	}
	if rec.Delivered == 0 || rec.Joins == 0 {
		t.Fatalf("record missing measurements: %+v", rec)
	}
	if len(rec.Curves) != 2 || len(rec.Curves[0].WDB) != len(rec.Loads) {
		t.Fatalf("curve shape wrong: %+v", rec.Curves)
	}
	// The transient series must survive into the record: one windowed
	// max-delay series per load, at the scenario's bucket width.
	c0 := rec.Curves[0]
	if c0.WindowSec != 0.5 || len(c0.WindowMax) != len(rec.Loads) || len(c0.WindowMax[0]) == 0 {
		t.Fatalf("windowed series missing from record: sec=%v series=%v", c0.WindowSec, c0.WindowMax)
	}
}

// Churn must actually disrupt something at quick scale — the disruption
// metrics are the point of the scenario — while the static byte-identity
// of churn-free scenarios is pinned by the golden tests.
func TestChurnScenarioReportsDisruption(t *testing.T) {
	r, err := ScenarioSweep(scenario.MustLookup("churn-waxman-16").Quick(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Joins == 0 || r.Leaves == 0 {
		t.Fatalf("no disruption recorded: joins=%d leaves=%d", r.Joins, r.Leaves)
	}
	// Regrafts need a departing *forwarder*; at quick scale churned-in
	// members are usually leaves, so regrafts are exercised by the core
	// control-plane tests instead (initial forwarders leave there).
}
