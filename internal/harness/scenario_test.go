package harness

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/scenario"
)

// TestScenarioSweepStrategyOption forces a sweep onto one strategy and
// checks the override reaches the compiled configs: the forced sweep
// must equal a sweep of the scenario with the strategy set declaratively.
func TestScenarioSweepStrategyOption(t *testing.T) {
	sc := scenario.MustLookup("waxman-zipf-16").Quick()
	opts := Options{Seed: 5, Loads: []float64{0.8}, Duration: des.Second}
	forcedOpts := opts
	forcedOpts.Strategy = "greedy"
	forced, err := ScenarioSweep(sc, forcedOpts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := forced.JSON()
	if err != nil {
		t.Fatal(err)
	}
	declared := sc
	declared.Strategy = "greedy"
	declared.Combos = []scenario.Combo{
		{Scheme: "sigma-rho-lambda"},
		{Scheme: "sigma-rho"},
	}
	if want := sweepJSON(t, declared, opts); !bytes.Equal(got, want) {
		t.Fatalf("forced sweep diverged from the declarative one:\n--- declared\n%s\n--- forced\n%s", want, got)
	}
	// The forced sweep must differ from the unforced dsct baseline —
	// otherwise the override silently did nothing.
	base, err := ScenarioSweep(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(base.Curves[0].WDB.Y[0]) == math.Float64bits(forced.Curves[0].WDB.Y[0]) {
		t.Fatal("greedy override produced the dsct result")
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
