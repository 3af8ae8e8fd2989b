package wdc

import (
	"math"
	"testing"

	"repro/internal/des"
)

func TestFacadeRunSingleHop(t *testing.T) {
	res := Run(OneHop(Config{Mix: MixAudio, Load: 0.8, Scheme: SchemeSRL,
		Duration: 13 * des.Second, Seed: 1}))
	if res.WDB <= 0 || res.Delivered == 0 {
		t.Fatalf("facade single hop degenerate: %+v", res)
	}
}

func TestFacadeRunSession(t *testing.T) {
	res := Run(Config{NumHosts: 40, Mix: MixAudio, Load: 0.6, Scheme: SchemeSigmaRho,
		Duration: 13 * des.Second, Seed: 1})
	if res.WDB <= 0 || res.Delivered == 0 {
		t.Fatalf("facade session degenerate: %+v", res)
	}
}

func TestFacadeTheory(t *testing.T) {
	var th Theory
	if got := th.Lambda(0.5); got != 2 {
		t.Fatalf("Lambda = %v", got)
	}
	if got := th.Vacation(0.02, 0.4); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("Vacation = %v", got)
	}
	if got := th.WorkPeriod(0.02, 0.4); math.Abs(got-0.02/0.6) > 1e-12 {
		t.Fatalf("WorkPeriod = %v", got)
	}
	if k3 := th.RhoStarHomog(3); k3 <= 0 || k3 >= 1.0/3 {
		t.Fatalf("RhoStarHomog(3) = %v", k3)
	}
	if k3 := th.RhoStarHetero(3); k3 <= 0 || k3 >= 1.0/3 {
		t.Fatalf("RhoStarHetero(3) = %v", k3)
	}
	sigmas := []float64{0.01, 0.01, 0.01}
	rhos := []float64{0.3, 0.3, 0.3}
	dg := th.DelayBoundSigmaRho(sigmas, rhos)
	dhat := th.DelayBoundSRL(sigmas, rhos)
	if dg <= 0 || dhat <= 0 {
		t.Fatal("non-positive bounds")
	}
	// Above threshold (0.9 > 0.79): λ bound must win.
	if dhat > dg {
		t.Fatalf("D̂ %v > D %v above threshold", dhat, dg)
	}
	if h := th.DSCTHeightBound(665, 3); h != 7 {
		t.Fatalf("height bound = %d", h)
	}
	if th.MulticastBoundSRL(7, sigmas, rhos) != 6*dhat {
		t.Fatal("multicast SRL bound mismatch")
	}
	if th.MulticastBoundSigmaRho(7, sigmas, rhos) != 6*dg {
		t.Fatal("multicast σρ bound mismatch")
	}
}

func TestFacadeOptionsHelpers(t *testing.T) {
	if got := PaperLoads(); len(got) != 13 || got[0] != 0.35 || got[12] != 0.95 {
		t.Fatalf("PaperLoads = %v", got)
	}
	// Mutating the returned slice must not affect the harness grid.
	loads := PaperLoads()
	loads[0] = 99
	if PaperLoads()[0] != 0.35 {
		t.Fatal("PaperLoads aliases internal state")
	}
	o := QuickOptions(9)
	if o.Seed != 9 || o.NumHosts != 120 {
		t.Fatalf("QuickOptions = %+v", o)
	}
}

// Table II through the facade: the video panel's layer counts at a 1 ms
// horizon (they are fixed at build time).
func TestFacadeLayerTable(t *testing.T) {
	o := QuickOptions(1)
	o.NumHosts = 150
	o.Loads = []float64{0.4, 0.9}
	o.Duration = des.Millisecond
	r, err := ScenarioSweep(MustScenario("paper-fig6b"), o)
	if err != nil {
		t.Fatal(err)
	}
	ca := r.Curves[0]
	if ca.Combo.String() != "capacity-aware dsct" || len(ca.Layers) != 2 {
		t.Fatalf("first curve %v with %d rows", ca.Combo, len(ca.Layers))
	}
	if ca.Layers[1] <= ca.Layers[0] {
		t.Fatalf("layer growth missing: %v", ca.Layers)
	}
}

func TestFacadeScenarios(t *testing.T) {
	if len(Scenarios()) < 6 {
		t.Fatalf("facade lists %d scenarios, want >= 6", len(Scenarios()))
	}
	sc, err := LookupScenario("paper-fig6")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LookupScenario("no-such-scenario"); err == nil {
		t.Fatal("unknown scenario must error")
	}
	data, err := sc.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseScenario(data); err != nil {
		t.Fatal(err)
	}
	res, err := ScenarioSweep(MustScenario("ring-sparse").Quick(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 || len(res.Curves) != 2 {
		t.Fatalf("facade sweep: %d deliveries, %d curves", res.Delivered, len(res.Curves))
	}
}
