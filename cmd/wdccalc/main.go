// Command wdccalc evaluates the paper's closed-form results: duty-cycle
// parameters, delay bounds, rate thresholds, and improvement ratios.
//
// Usage:
//
//	wdccalc -rhostar -maxk 20
//	wdccalc -ratio -k 3
//	wdccalc -duty -sigma 0.02 -rho 0.3
//	wdccalc -bounds -k 3 -sigma 0.02 -rho 0.3 -height 7
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/calculus"
	"repro/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable CLI body: flags parse from args, output goes to the
// given writers, and the exit code is returned instead of os.Exit-ed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wdccalc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		rhostar = fs.Bool("rhostar", false, "Theorem 3/4 thresholds")
		ratio   = fs.Bool("ratio", false, "Theorem 5/6 improvement bounds")
		duty    = fs.Bool("duty", false, "Eq. (1) duty-cycle parameters")
		bounds  = fs.Bool("bounds", false, "Lemma 1 / Theorems 1-2 / 7-8 delay bounds")
		maxK    = fs.Int("maxk", 10, "largest K for -rhostar")
		k       = fs.Int("k", 3, "number of flows/groups")
		sigma   = fs.Float64("sigma", 0.02, "burst σ in capacity-seconds")
		rho     = fs.Float64("rho", 0.3, "per-flow rate ρ as a fraction of capacity")
		height  = fs.Int("height", 7, "DSCT tree height bound for multicast bounds")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := checkFlags(*ratio, *bounds, *maxK, *k, *sigma, *rho, *height); err != nil {
		fmt.Fprintf(stderr, "wdccalc: %v\n", err)
		return 2
	}

	any := false
	if *rhostar {
		any = true
		fmt.Fprintln(stdout, "Rate thresholds ρ* (Theorems 3/4):")
		fmt.Fprint(stdout, harness.RhoStarTable(*maxK))
	}
	if *ratio {
		any = true
		fmt.Fprintf(stdout, "Guaranteed Dg/D̂g improvement bounds, K=%d (Theorems 5/6):\n", *k)
		fmt.Fprint(stdout, harness.ImprovementTable(*k, nil))
	}
	if *duty {
		any = true
		lam := calculus.Lambda(*rho)
		fmt.Fprintf(stdout, "Duty cycle for σ=%.4g, ρ=%.4g (Eq. 1):\n", *sigma, *rho)
		fmt.Fprintf(stdout, "  λ = 1/(1−ρ)      = %.4f\n", lam)
		fmt.Fprintf(stdout, "  W = σ/(1−ρ)      = %.4fs\n", calculus.WorkPeriod(*sigma, *rho))
		fmt.Fprintf(stdout, "  V = σ/ρ          = %.4fs\n", calculus.Vacation(*sigma, *rho))
		fmt.Fprintf(stdout, "  P = λσ/ρ         = %.4fs\n", calculus.Period(*sigma, *rho))
	}
	if *bounds {
		any = true
		sigmas := make([]float64, *k)
		rhos := make([]float64, *k)
		for i := range sigmas {
			sigmas[i], rhos[i] = *sigma, *rho
		}
		dg := calculus.DgHetero(sigmas, rhos)
		dhat := calculus.DhatHetero(sigmas, rhos)
		fmt.Fprintf(stdout, "Bounds for K=%d identical flows (σ=%.4g, ρ=%.4g):\n", *k, *sigma, *rho)
		fmt.Fprintf(stdout, "  Lemma 1 regulator delay  = %.4fs\n", calculus.Lemma1Delay(*sigma, *sigma, *rho))
		fmt.Fprintf(stdout, "  Remark 1 MUX bound  Dg   = %.4fs\n", dg)
		fmt.Fprintf(stdout, "  Theorem 1 MUX bound D̂g  = %.4fs\n", dhat)
		fmt.Fprintf(stdout, "  Theorem 7 tree bound (H=%d) = %.4fs (σ,ρ,λ) vs %.4fs (σ,ρ)\n",
			*height, calculus.MulticastDhatHetero(*height, sigmas, rhos),
			calculus.MulticastDgHetero(*height, sigmas, rhos))
	}
	if !any {
		fs.Usage()
		return 2
	}
	return 0
}

// checkFlags rejects the flag values the closed forms are undefined at, so
// bad input exits 2 with one line instead of a panic inside calculus.
func checkFlags(ratio, bounds bool, maxK, k int, sigma, rho float64, height int) error {
	switch {
	case !(rho > 0 && rho < 1):
		return fmt.Errorf("-rho %v outside (0, 1)", rho)
	case !(sigma > 0):
		return fmt.Errorf("-sigma %v must be positive", sigma)
	case maxK < 2:
		return fmt.Errorf("-maxk %d: the threshold table starts at K = 2", maxK)
	case k < 1:
		return fmt.Errorf("-k %d must be at least 1", k)
	case ratio && k < 2:
		return fmt.Errorf("-ratio needs -k of at least 2, got %d", k)
	case height < 2:
		return fmt.Errorf("-height %d: a tree has at least the source and one hop", height)
	case bounds && float64(k)*rho >= 1:
		return fmt.Errorf("-bounds needs Kρ < 1 for a stable MUX, got K=%d, ρ=%v", k, rho)
	}
	return nil
}
