// Package calculus implements the paper's network-calculus results in
// closed form: the (σ, ρ, λ) duty-cycle identities (Section III), the
// worst-case delay bounds for regulated general MUXes (Lemma 1, Theorems
// 1–2, Remark 1), the rate threshold ρ* (Theorems 3–4), the improvement
// ratios (Theorems 5–6), the DSCT height bound (Lemma 2), and the
// multicast bounds (Theorems 7–8, Remark 2).
//
// All quantities are normalised the way the paper normalises them:
// capacity C = 1, each rate ρ is a fraction of capacity in (0, 1), each
// burst σ is in capacity-seconds (bits divided by the link rate in
// bits/second), and all delays come back in seconds. Use Normalize to
// convert physical flow parameters.
package calculus

import (
	"fmt"
	"math"
)

// Normalize converts a physical (σ bits, ρ bits/s) flow on a link of
// capacity c bits/s into the paper's normalised units.
func Normalize(sigmaBits, rhoBps, c float64) (sigma, rho float64) {
	if c <= 0 {
		panic("calculus: capacity must be positive")
	}
	return sigmaBits / c, rhoBps / c
}

// Lambda returns the control factor λ = 1/(1−ρ) of Eq. (1).
// It panics unless 0 < ρ < 1.
func Lambda(rho float64) float64 {
	checkRho(rho)
	return 1 / (1 - rho)
}

// WorkPeriod returns W = σ/(1−ρ), the on-state length in seconds.
func WorkPeriod(sigma, rho float64) float64 {
	checkSigma(sigma)
	checkRho(rho)
	return sigma / (1 - rho)
}

// Vacation returns V = σ/ρ, the off-state length in seconds.
func Vacation(sigma, rho float64) float64 {
	checkSigma(sigma)
	checkRho(rho)
	return sigma / rho
}

// Period returns the regulator period P = W + V = λσ/ρ in seconds.
func Period(sigma, rho float64) float64 {
	return WorkPeriod(sigma, rho) + Vacation(sigma, rho)
}

// Lemma1Delay bounds the delay a flow with envelope (σ*, ρ) suffers in a
// (σ, ρ, λ) regulator: D = (σ*−σ)⁺/ρ + 2λσ/ρ.
func Lemma1Delay(sigmaStar, sigma, rho float64) float64 {
	checkSigma(sigma)
	checkRho(rho)
	excess := sigmaStar - sigma
	if excess < 0 {
		excess = 0
	}
	return excess/rho + 2*Lambda(rho)*sigma/rho
}

// SigmaStar computes the per-flow regulator bursts of Theorem 1:
// σ*ᵢ = ρᵢ(1−ρᵢ)·min_j { σⱼ / (ρⱼ(1−ρⱼ)) }. A flow attaining the minimum
// keeps its σᵢ exactly, which the product would round off by an ulp, so a
// homogeneous mix's σ* is bit for bit its σ. The σ unit is free; ρ is
// normalised to the link capacity.
func SigmaStar(sigmas, rhos []float64) []float64 {
	checkFlows(sigmas, rhos)
	m := math.Inf(1)
	for j := range sigmas {
		if v := sigmas[j] / (rhos[j] * (1 - rhos[j])); v < m {
			m = v
		}
	}
	out := make([]float64, len(sigmas))
	for i := range out {
		out[i] = sigmas[i]
		if sigmas[i]/(rhos[i]*(1-rhos[i])) != m {
			out[i] = rhos[i] * (1 - rhos[i]) * m
		}
	}
	return out
}

// DgHetero is Remark 1 (Cruz): the worst-case delay of a (σᵢ, ρᵢ)-regulated
// general MUX with K heterogeneous flows, Σσᵢ / (1 − Σρᵢ).
// It panics when the stability condition Σρᵢ < 1 fails.
func DgHetero(sigmas, rhos []float64) float64 {
	checkFlows(sigmas, rhos)
	var sumS, sumR float64
	for i := range sigmas {
		sumS += sigmas[i]
		sumR += rhos[i]
	}
	if sumR >= 1 {
		panic(fmt.Sprintf("calculus: unstable MUX, Σρ = %v >= 1", sumR))
	}
	return sumS / (1 - sumR)
}

// DgHomog is Remark 1 for K homogeneous flows: Kσ₀/(1−Kρ).
func DgHomog(k int, sigma0, rho float64) float64 {
	checkK(k)
	checkSigma(sigma0)
	checkRho(rho)
	if float64(k)*rho >= 1 {
		panic("calculus: unstable MUX, Kρ >= 1")
	}
	return float64(k) * sigma0 / (1 - float64(k)*rho)
}

// DhatHetero is Theorem 1: the worst-case delay of a (σ*ᵢ, ρᵢ, λᵢ)-
// regulated general MUX with K heterogeneous input flows of envelopes
// (σᵢ, ρᵢ):
//
//	D̂g = Σ σ*ᵢ/(1−ρᵢ) + 2·min{σᵢ/(ρᵢ(1−ρᵢ))} + max{(σᵢ−σ*ᵢ)/ρᵢ}.
func DhatHetero(sigmas, rhos []float64) float64 {
	checkFlows(sigmas, rhos)
	star := SigmaStar(sigmas, rhos)
	var sum, minTerm, maxTerm float64
	minTerm = math.Inf(1)
	for i := range sigmas {
		sum += star[i] / (1 - rhos[i])
		if v := sigmas[i] / (rhos[i] * (1 - rhos[i])); v < minTerm {
			minTerm = v
		}
		if v := (sigmas[i] - star[i]) / rhos[i]; v > maxTerm {
			maxTerm = v
		}
	}
	return sum + 2*minTerm + maxTerm
}

// DhatHomog is Theorem 2: K homogeneous flows with input envelope
// (σ₀, ρ) through (σ, ρ, λ) regulators:
//
//	D̂g = Kσ/(1−ρ) + (σ₀−σ)⁺/ρ + 2λσ/ρ.
func DhatHomog(k int, sigma, sigma0, rho float64) float64 {
	checkK(k)
	checkSigma(sigma)
	checkRho(rho)
	excess := sigma0 - sigma
	if excess < 0 {
		excess = 0
	}
	return float64(k)*sigma/(1-rho) + excess/rho + 2*Lambda(rho)*sigma/rho
}

// G1Hetero is the left side of Theorem 3's threshold equation, in units of
// σ (the 1/ρmin additive constant is dropped, as in the paper's proof):
// g1(ρ̄) = K/(1−ρ̄) + 2/(ρ̄(1−ρ̄)) + 1/ρ̄.
func G1Hetero(k int, rhoBar float64) float64 {
	checkK(k)
	checkRho(rhoBar)
	return float64(k)/(1-rhoBar) + 2/(rhoBar*(1-rhoBar)) + 1/rhoBar
}

// G2 is the (σ, ρ) baseline in the same units: g2(ρ̄) = K/(1−Kρ̄),
// defined for ρ̄ < 1/K.
func G2(k int, rhoBar float64) float64 {
	checkK(k)
	if rhoBar <= 0 || float64(k)*rhoBar >= 1 {
		panic("calculus: G2 requires 0 < ρ̄ < 1/K")
	}
	return float64(k) / (1 - float64(k)*rhoBar)
}

// RhoStarHetero solves Theorem 3's threshold equation
// (K²−2K)ρ̄² + (3K+1)ρ̄ − 3 = 0 for the unique root in (0, 1/K).
// Requires K >= 2; K = 2 degenerates to the linear equation 7ρ̄ = 3.
func RhoStarHetero(k int) float64 {
	checkK(k)
	kf := float64(k)
	a := kf*kf - 2*kf
	b := 3*kf + 1
	const c = -3.0
	if a == 0 { // K == 2
		return -c / b
	}
	return (-b + math.Sqrt(b*b-4*a*c)) / (2 * a)
}

// RhoStarHomog solves the homogeneous threshold equation
// (K²−K)ρ² + 2Kρ − 2 = 0 (Theorem 4) for the root in (0, 1/K).
func RhoStarHomog(k int) float64 {
	checkK(k)
	kf := float64(k)
	a := kf*kf - kf
	b := 2 * kf
	const c = -2.0
	return (-b + math.Sqrt(b*b-4*a*c)) / (2 * a)
}

// Control-range limits: as K→∞ the fraction of the stability interval
// (0, 1/K) in which the (σ, ρ, λ) regulator wins converges to these
// constants (Theorem 3(ii) and Theorem 4(ii)).
var (
	// HeteroRangeLimit = (5−√21)/2 ≈ 0.2087.
	HeteroRangeLimit = (5 - math.Sqrt(21)) / 2
	// HomogRangeLimit = 2−√3 ≈ 0.2679.
	HomogRangeLimit = 2 - math.Sqrt(3)
)

// ControlRange returns the fraction of the stability interval above the
// threshold: (1/K − ρ*)/(1/K) = 1 − Kρ*.
func ControlRange(k int, rhoStar float64) float64 {
	checkK(k)
	return 1 - float64(k)*rhoStar
}

// ThresholdUtilizationHetero returns K·ρ* for heterogeneous flows — the
// aggregate-utilisation form of the threshold (→ 0.79 as K→∞, the
// paper's "ρ* = 0.79C").
func ThresholdUtilizationHetero(k int) float64 {
	return float64(k) * RhoStarHetero(k)
}

// ThresholdUtilizationHomog returns K·ρ* for homogeneous flows
// (→ 0.73 as K→∞, the paper's "ρ* = 0.73C").
func ThresholdUtilizationHomog(k int) float64 {
	return float64(k) * RhoStarHomog(k)
}

// ImprovementHetero is Theorem 5's lower bound on Dg/D̂g:
// Kρ̄(1−ρ̄) / ((1−Kρ̄)(3+(K−1)ρ̄)), valid for ρ̄ ∈ (0, 1/K).
func ImprovementHetero(k int, rhoBar float64) float64 {
	checkK(k)
	kf := float64(k)
	if rhoBar <= 0 || kf*rhoBar >= 1 {
		panic("calculus: improvement ratio requires 0 < ρ̄ < 1/K")
	}
	return kf * rhoBar * (1 - rhoBar) / ((1 - kf*rhoBar) * (3 + (kf-1)*rhoBar))
}

// ImprovementHomog is Theorem 6's counterpart with σ₀ = σ:
// Kρ(1−ρ) / ((1−Kρ)(2+Kρ)).
func ImprovementHomog(k int, rho float64) float64 {
	checkK(k)
	kf := float64(k)
	if rho <= 0 || kf*rho >= 1 {
		panic("calculus: improvement ratio requires 0 < ρ < 1/K")
	}
	return kf * rho * (1 - rho) / ((1 - kf*rho) * (2 + kf*rho))
}

// RhoBarForOrder returns the band edge ρ̄ = 1/K − 1/K^(n+1) at which
// Theorems 5–6 guarantee an O(Kⁿ) improvement.
func RhoBarForOrder(k, n int) float64 {
	checkK(k)
	if n < 1 {
		panic("calculus: order n must be >= 1")
	}
	kf := float64(k)
	return 1/kf - 1/math.Pow(kf, float64(n+1))
}

func checkRho(rho float64) {
	if rho <= 0 || rho >= 1 {
		panic(fmt.Sprintf("calculus: ρ = %v outside (0,1)", rho))
	}
}

func checkSigma(sigma float64) {
	if sigma < 0 || math.IsNaN(sigma) {
		panic(fmt.Sprintf("calculus: σ = %v invalid", sigma))
	}
}

func checkK(k int) {
	if k < 2 {
		panic("calculus: K must be >= 2")
	}
}

func checkFlows(sigmas, rhos []float64) {
	if len(sigmas) == 0 || len(sigmas) != len(rhos) {
		panic("calculus: sigma/rho slices must be non-empty and equal length")
	}
	for i := range rhos {
		checkSigma(sigmas[i])
		checkRho(rhos[i])
	}
}
