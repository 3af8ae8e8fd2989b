package stats

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("rho", "WDB(s)")
	tb.AddRow("0.35", "0.010")
	tb.AddRow("0.95", "0.900")
	out := tb.String()
	if !strings.Contains(out, "rho") || !strings.Contains(out, "0.95") {
		t.Fatalf("render missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, rule, 2 rows
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), out)
	}
	if len(tb.rows) != 2 {
		t.Fatalf("rows = %d", len(tb.rows))
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("a", "b", "c")
	tb.AddRow("1")
	tb.AddRow("1", "2", "3", "4")
	out := tb.String()
	if !strings.Contains(out, "4") {
		t.Fatalf("extra cell dropped:\n%s", out)
	}
}

func TestSeriesAddAndYAt(t *testing.T) {
	var s Series
	s.Add(0.35, 1.0)
	s.Add(0.40, 2.0)
	if len(s.X) != 2 || s.X[1] != 0.40 || s.Y[1] != 2.0 {
		t.Fatalf("series after two Adds = %v / %v", s.X, s.Y)
	}
}

func TestCrossoverFindsFlip(t *testing.T) {
	// a starts above b, crosses at x=0.7.
	a := &Series{Name: "srl"}
	b := &Series{Name: "sr"}
	for _, p := range []struct{ x, ya, yb float64 }{
		{0.5, 10, 5}, {0.6, 9, 7}, {0.7, 8, 9}, {0.8, 7, 15},
	} {
		a.Add(p.x, p.ya)
		b.Add(p.x, p.yb)
	}
	x, ok := Crossover(a, b)
	if !ok || x != 0.7 {
		t.Fatalf("crossover = %v ok=%v", x, ok)
	}
}

func TestCrossoverNever(t *testing.T) {
	a := &Series{}
	b := &Series{}
	a.Add(1, 10)
	b.Add(1, 1)
	if _, ok := Crossover(a, b); ok {
		t.Fatal("crossover reported where none exists")
	}
}

func TestCrossoverGridMismatchPanics(t *testing.T) {
	a := &Series{}
	b := &Series{}
	a.Add(1, 10)
	b.Add(2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on grid mismatch")
		}
	}()
	Crossover(a, b)
}

func TestMaxRatio(t *testing.T) {
	a := &Series{} // baseline (σ,ρ)
	b := &Series{} // (σ,ρ,λ)
	for _, p := range []struct{ x, ya, yb float64 }{
		{0.6, 8, 10}, {0.7, 9, 9}, {0.8, 20, 5}, {0.9, 30, 12},
	} {
		a.Add(p.x, p.ya)
		b.Add(p.x, p.yb)
	}
	ratio, at := MaxRatio(a, b, 0.7)
	if at != 0.8 || math.Abs(ratio-4.0) > 1e-12 {
		t.Fatalf("max ratio = %v at %v", ratio, at)
	}
	// Restricting the range excludes the 0.8 point.
	ratio, at = MaxRatio(a, b, 0.85)
	if at != 0.9 || math.Abs(ratio-2.5) > 1e-12 {
		t.Fatalf("restricted max ratio = %v at %v", ratio, at)
	}
}

func TestMaxRatioSkipsNonPositive(t *testing.T) {
	a := &Series{}
	b := &Series{}
	a.Add(1, 10)
	b.Add(1, 0)
	ratio, _ := MaxRatio(a, b, 0)
	if ratio != 0 {
		t.Fatalf("ratio over zero baseline = %v", ratio)
	}
}
