package harness

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/scenario"
)

func TestQuickOptions(t *testing.T) {
	o := Quick(5)
	if o.NumHosts != 120 || len(o.Loads) != 5 || o.Seed != 5 || o.Duration != 13*des.Second {
		t.Fatalf("quick options: %+v", o)
	}
}

// Zero options on a paper entry resolve to paper scale: seed 1, the
// 13-point grid, 665 hosts (the one-hop preset's two), 15 s multi-group and
// 36 s one-hop runs.
func TestOptionsDefaults(t *testing.T) {
	p, err := newSweepPlan(scenario.MustLookup("paper-fig6"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.seed != 1 || p.cfgs[0].NumHosts != 665 || len(p.loads) != 13 || p.dur() != 15*des.Second {
		t.Fatalf("defaults: seed %d, hosts %d, %d loads, %v", p.seed, p.cfgs[0].NumHosts, len(p.loads), p.dur())
	}
	p, err = newSweepPlan(scenario.MustLookup("paper-fig4"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.dur() != 36*des.Second || len(p.loads) != 13 || p.cfgs[0].NumHosts != 2 {
		t.Fatalf("one-hop defaults: %d loads, %v, %d hosts", len(p.loads), p.dur(), p.cfgs[0].NumHosts)
	}
	// -hosts is a multi-group lever; the preset keeps its two.
	p, err = newSweepPlan(scenario.MustLookup("paper-fig4"), Options{NumHosts: 120})
	if err != nil || p.cfgs[0].NumHosts != 2 {
		t.Fatalf("one-hop under NumHosts=120: %d hosts (err %v)", p.cfgs[0].NumHosts, err)
	}
}

// curve returns the sweep's curve for one combo by its printed name.
func curve(t *testing.T, r ScenarioResult, combo string) ScenarioCurve {
	t.Helper()
	for _, c := range r.Curves {
		if c.Combo.String() == combo {
			return c
		}
	}
	t.Fatalf("sweep has no %q curve", combo)
	return ScenarioCurve{}
}

func TestFig4ShapeQuick(t *testing.T) {
	r, err := ScenarioSweep(scenario.MustLookup("paper-fig4b"), Quick(1))
	if err != nil {
		t.Fatal(err)
	}
	sr, srl := curve(t, r, "sigma-rho").WDB, curve(t, r, "sigma-rho-lambda").WDB
	if len(sr.Y) != 5 || len(srl.Y) != 5 {
		t.Fatalf("series lengths %d/%d", len(sr.Y), len(srl.Y))
	}
	xs := r.Crossovers()
	if len(xs) != 1 || !xs[0].OK {
		t.Fatalf("no crossover found: %s", r.CrossoverSummary())
	}
	if xs[0].At < 0.5 || xs[0].At > 0.85 {
		t.Fatalf("crossover %.2f outside the paper band", xs[0].At)
	}
	if xs[0].MaxRatio < 1.5 {
		t.Fatalf("max improvement %.2f too small", xs[0].MaxRatio)
	}
	if th := r.TheoryThreshold(); th < 0.78 || th > 0.80 {
		t.Fatalf("theory threshold %.4f, want K·ρ* ≈ 0.79 for three homogeneous flows", th)
	}
	// Monotone-ish SR curve: last point far above first.
	if sr.Y[4] < 3*sr.Y[0] {
		t.Fatalf("(σ,ρ) curve not rising: %v", sr.Y)
	}
	if tab := r.Table().String(); !strings.Contains(tab, "0.95") {
		t.Fatalf("table missing load rows:\n%s", tab)
	}
	if !strings.Contains(r.CrossoverSummary(), "max improvement") {
		t.Fatalf("summary: %q", r.CrossoverSummary())
	}
}

func TestFig4WithAdaptive(t *testing.T) {
	o := Quick(1)
	o.Loads = []float64{0.4, 0.9}
	sc := scenario.MustLookup("paper-fig4")
	sc.Combos = append(slices.Clone(sc.Combos), scenario.Combo{Scheme: "adaptive"})
	r, err := ScenarioSweep(sc, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve(t, r, "adaptive").WDB.Y) != 2 {
		t.Fatal("adaptive series missing")
	}
	if !strings.Contains(r.Table().String(), "adaptive") {
		t.Fatal("table missing adaptive column")
	}
}

func TestFig6ShapeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig. 6 sweep; skipped in -short (the race job's quick suite)")
	}
	o := Quick(1)
	o.NumHosts = 60
	o.Loads = []float64{0.4, 0.9}
	r, err := ScenarioSweep(scenario.MustLookup("paper-fig6"), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Curves) != 6 {
		t.Fatalf("curves = %d", len(r.Curves))
	}
	srl := curve(t, r, "sigma-rho-lambda dsct")
	sr := curve(t, r, "sigma-rho dsct")
	// Low load: (σ,ρ) wins; high load: (σ,ρ,λ) wins.
	if sr.WDB.Y[0] >= srl.WDB.Y[0] {
		t.Fatalf("(σ,ρ) should win at 0.4: %v vs %v", sr.WDB.Y[0], srl.WDB.Y[0])
	}
	if srl.WDB.Y[1] >= sr.WDB.Y[1] {
		t.Fatalf("(σ,ρ,λ) should win at 0.9: %v vs %v", srl.WDB.Y[1], sr.WDB.Y[1])
	}
	// One comparison per tree family, each crossing inside the grid.
	xs := r.Crossovers()
	if len(xs) != 2 || xs[0].Strategy != "dsct" || xs[1].Strategy != "nice" || !xs[0].OK {
		t.Fatalf("crossovers: %+v", xs)
	}
	// Layer tables: capacity-aware grows, regulated constant.
	ca, reg := curve(t, r, "capacity-aware dsct").Layers, srl.Layers
	if ca[1] <= ca[0] {
		t.Fatalf("capacity-aware layers did not grow: %v", ca)
	}
	if reg[0] != reg[1] {
		t.Fatalf("regulated layers changed: %v", reg)
	}
	if out := r.Table().String(); !strings.Contains(out, "capacity-aware dsct") {
		t.Fatalf("table missing combo columns:\n%s", out)
	}
	if out := r.LayerTable().String(); !strings.Contains(out, "sigma-rho-lambda dsct") || !strings.Contains(out, "0.90") {
		t.Fatalf("layer table malformed:\n%s", out)
	}
}

// Tables I–III: layer counts are fixed at build time, so a 1 ms horizon
// reproduces them without simulating traffic.
func TestLayerTableShape(t *testing.T) {
	o := Quick(1)
	o.NumHosts = 200
	o.Loads = []float64{0.35, 0.65, 0.95}
	o.Duration = des.Millisecond
	r, err := ScenarioSweep(scenario.MustLookup("paper-fig6"), o)
	if err != nil {
		t.Fatal(err)
	}
	ca, reg := curve(t, r, "capacity-aware dsct").Layers, curve(t, r, "sigma-rho-lambda dsct").Layers
	if len(ca) != 3 {
		t.Fatalf("rows = %d", len(ca))
	}
	if ca[2] <= ca[0] {
		t.Fatalf("capacity-aware layers should grow: %v", ca)
	}
	if reg[0] != reg[1] || reg[1] != reg[2] {
		t.Fatalf("regulated layers vary: %v", reg)
	}
	// The horizon does not move them.
	o.Duration = des.Second
	long, err := ScenarioSweep(scenario.MustLookup("paper-fig6"), o)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := long.LayerTable().String(), r.LayerTable().String(); got != want {
		t.Fatalf("layer table depends on the horizon:\n%s\nvs\n%s", got, want)
	}
	if !strings.Contains(r.LayerTable().String(), "0.95") {
		t.Fatal("table missing rows")
	}
}

func TestFig2TraceZigZag(t *testing.T) {
	pts := Fig2Trace(10_000, 250_000, 1_000_000, des.Seconds(1), 200)
	if len(pts) != 200 {
		t.Fatalf("points = %d", len(pts))
	}
	// Cumulative output is non-decreasing and alternates on/off states.
	transitions := 0
	for i := 1; i < len(pts); i++ {
		if pts[i].CumOut < pts[i-1].CumOut {
			t.Fatal("cumulative output decreased")
		}
		if pts[i].On != pts[i-1].On {
			transitions++
		}
	}
	if transitions < 4 {
		t.Fatalf("only %d on/off transitions in the trace", transitions)
	}
	// Output never exceeds input.
	for _, p := range pts {
		if p.CumOut > p.CumIn+1e-9 {
			t.Fatal("output exceeded input")
		}
	}
	if !strings.Contains(Fig2Table(pts).String(), "backlog") {
		t.Fatal("fig2 table malformed")
	}
}

func TestRhoStarTable(t *testing.T) {
	out := RhoStarTable(5).String()
	for _, want := range []string{"0.7321", "0.7913", "K"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestRhoStarTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RhoStarTable(1)
}

func TestImprovementTable(t *testing.T) {
	out := ImprovementTable(3, nil).String()
	if !strings.Contains(out, "0.95") {
		t.Fatalf("missing rows:\n%s", out)
	}
	// Custom load grid.
	out = ImprovementTable(3, []float64{0.9}).String()
	if !strings.Contains(out, "0.90") {
		t.Fatalf("custom grid ignored:\n%s", out)
	}
}

func TestFig2TracePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Fig2Trace(1000, 100, 1000, des.Second, 1)
}
