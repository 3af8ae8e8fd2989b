package harness

import (
	"fmt"

	"repro/internal/calculus"
	"repro/internal/des"
	"repro/internal/regulator"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// Fig2Point is one sample of the (σ, ρ, λ) regulator operation trace.
type Fig2Point struct {
	T       float64 // seconds
	On      bool
	CumIn   float64 // bits entered
	CumOut  float64 // bits emitted
	Backlog float64 // bits queued
}

// Fig2Trace reproduces Fig. 2: the zig-zag cumulative-output curve of one
// (σ, ρ, λ) regulator fed by a greedy (σ, ρ) flow, sampled on a fine grid.
func Fig2Trace(sigma, rho, c float64, dur des.Duration, samples int) []Fig2Point {
	if samples < 2 {
		panic("harness: need at least two samples")
	}
	eng := des.New()
	var out float64
	reg := regulator.NewSRL(eng, sigma, rho, c, func(p traffic.Packet) { out += p.Size })
	var in float64
	src := traffic.NewGreedy(0, sigma, rho, sigma/16)
	src.Start(eng, dur, func(p traffic.Packet) {
		in += p.Size
		reg.Enqueue(p)
	})
	reg.StartCycle(0)
	points := make([]Fig2Point, 0, samples)
	step := dur / des.Duration(samples-1)
	for i := 0; i < samples; i++ {
		eng.RunUntil(des.Duration(i) * step)
		points = append(points, Fig2Point{
			T:       eng.Now().Seconds(),
			On:      reg.On(),
			CumIn:   in,
			CumOut:  out,
			Backlog: reg.Backlog(),
		})
	}
	reg.StopCycle()
	return points
}

// Fig2Table renders the trace.
func Fig2Table(points []Fig2Point) *stats.Table {
	t := stats.NewTable("t [s]", "state", "cum-in [bits]", "cum-out [bits]", "backlog [bits]")
	for _, p := range points {
		state := "off"
		if p.On {
			state = "on"
		}
		t.AddRow(fmt.Sprintf("%.4f", p.T), state,
			fmt.Sprintf("%.0f", p.CumIn), fmt.Sprintf("%.0f", p.CumOut),
			fmt.Sprintf("%.0f", p.Backlog))
	}
	return t
}

// RhoStarTable tabulates Theorems 3/4: the rate threshold per K, its
// aggregate-utilisation form, and the control-range fraction, with the
// K→∞ limits on the last row.
func RhoStarTable(maxK int) *stats.Table {
	if maxK < 2 {
		panic("harness: maxK must be >= 2")
	}
	t := stats.NewTable("K", "rho* homog", "K*rho* homog", "range homog",
		"rho* hetero", "K*rho* hetero", "range hetero")
	for k := 2; k <= maxK; k++ {
		hom := calculus.RhoStarHomog(k)
		het := calculus.RhoStarHetero(k)
		t.AddRow(fmt.Sprintf("%d", k),
			fmt.Sprintf("%.5f", hom),
			fmt.Sprintf("%.4f", float64(k)*hom),
			fmt.Sprintf("%.4f", calculus.ControlRange(k, hom)),
			fmt.Sprintf("%.5f", het),
			fmt.Sprintf("%.4f", float64(k)*het),
			fmt.Sprintf("%.4f", calculus.ControlRange(k, het)))
	}
	t.AddRow("inf", "", "0.7321", fmt.Sprintf("%.4f", calculus.HomogRangeLimit),
		"", "0.7913", fmt.Sprintf("%.4f", calculus.HeteroRangeLimit))
	return t
}

// ImprovementTable tabulates Theorems 5/6: the guaranteed Dg/D̂g lower
// bound across the load range for a given K.
func ImprovementTable(k int, loads []float64) *stats.Table {
	if len(loads) == 0 {
		loads = PaperLoads
	}
	t := stats.NewTable("rho*K", "bound homog", "bound hetero")
	for _, x := range loads {
		rho := x / float64(k)
		t.AddRow(fmt.Sprintf("%.2f", x),
			fmt.Sprintf("%.3f", calculus.ImprovementHomog(k, rho)),
			fmt.Sprintf("%.3f", calculus.ImprovementHetero(k, rho)))
	}
	return t
}
