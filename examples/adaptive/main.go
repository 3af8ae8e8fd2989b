// Adaptive: watch the paper's Adaptive Control Algorithm switch regulator
// models as the measured input rate crosses the Theorem 3/4 threshold.
// We run the one-hop shape (Simulation I) at a grid of loads under the
// adaptive scheme and show which model it settles on, alongside both fixed
// schemes — the adaptive curve hugs the lower envelope.
package main

import (
	"fmt"

	wdc "repro"
	"repro/internal/des"
)

func main() {
	var th wdc.Theory
	threshold := 3 * th.RhoStarHomog(3)
	fmt.Printf("Adaptive control, K=3 homogeneous audio flows; switch at ρ̄·K = %.3f\n\n", threshold)
	fmt.Printf("%-6s  %-12s  %-12s  %-12s  %-8s\n", "load", "(σ,ρ)", "(σ,ρ,λ)", "adaptive", "switches")

	var specs []wdc.FlowSpec
	for _, load := range []float64{0.40, 0.55, 0.70, 0.85, 0.95} {
		run := func(s wdc.Scheme) wdc.Result {
			return wdc.Run(wdc.OneHop(wdc.Config{
				Mix: wdc.MixAudio, Load: load, Scheme: s,
				Duration: 25 * des.Second, Seed: 1, Specs: specs,
			}))
		}
		sr := run(wdc.SchemeSigmaRho)
		specs = sr.Specs
		srl := run(wdc.SchemeSRL)
		ad := run(wdc.SchemeAdaptive)
		mode := "(σ,ρ)"
		if load >= threshold {
			mode = "(σ,ρ,λ)"
		}
		fmt.Printf("%-6.2f  %-12.4f  %-12.4f  %-12.4f  %-8d  -> settles on %s\n",
			load, sr.WDB, srl.WDB, ad.WDB, ad.ModeSwitches, mode)
	}
	fmt.Println("\nBelow the threshold the controller stays on the (σ,ρ) model; above it")
	fmt.Println("it engages the staggered (σ,ρ,λ) duty cycles (Section III's algorithm).")
}
