// Quickstart: one regulated end host (the paper's Simulation I) in a few
// lines of the public API. Three real-time video flows share one general
// multiplexer; we compare the worst-case delay of the classical (σ, ρ)
// regulator against the paper's (σ, ρ, λ) regulator at a low and a high
// load, and check the observed winner against the Theorem 4 threshold.
package main

import (
	"fmt"

	wdc "repro"
)

func main() {
	var th wdc.Theory
	fmt.Printf("Theorem 4 threshold for K=3 homogeneous flows: ρ*·K = %.3f\n\n",
		3*th.RhoStarHomog(3))

	for _, load := range []float64{0.50, 0.90} {
		sr := wdc.Run(wdc.OneHop(wdc.Config{
			Mix: wdc.MixVideo, Load: load, Scheme: wdc.SchemeSigmaRho, Seed: 1,
		}))
		srl := wdc.Run(wdc.OneHop(wdc.Config{
			Mix: wdc.MixVideo, Load: load, Scheme: wdc.SchemeSRL, Seed: 1,
		}))
		winner := "(σ,ρ)"
		if srl.WDB < sr.WDB {
			winner = "(σ,ρ,λ)"
		}
		fmt.Printf("load %.2f: WDB (σ,ρ) = %.3fs, WDB (σ,ρ,λ) = %.3fs -> %s wins\n",
			load, sr.WDB, srl.WDB, winner)
	}
	fmt.Println("\nBelow the threshold the plain regulator wins; above it the")
	fmt.Println("duty-cycle regulator wins — the paper's central claim.")
}
