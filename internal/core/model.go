// Package core implements the paper's contribution: the adaptive traffic-
// control algorithm for multi-group end-host multicast (Section III) and
// the regulated end-host model it runs on, wired into a full packet-level
// EMcast simulation over the substrates in internal/{des,topo,netsim,
// traffic,regulator,mux,overlay,calculus}.
//
// The package exposes one experiment engine, Session: a multi-group
// network of end hosts on a generated underlay (the paper's 19-router
// backbone by default), each group with its own member set and source (the
// paper's every-host-joins-every-group model by default), forwarding along
// DSCT or NICE trees under one of the control schemes, with optionally
// heterogeneous per-host uplink capacity. Simulation II (Fig. 5/6, Tables
// I–III) is its default shape; Simulation I (Fig. 3/4: K flows through one
// regulated general MUX into a sink) is its one-host case, shaped by OneHop.
package core

import (
	"fmt"

	"repro/internal/calculus"
	"repro/internal/des"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Scheme selects the traffic-control scheme at every end host.
type Scheme int

// The schemes compared in the paper's evaluation.
const (
	// SchemeCapacityAware reshapes the tree (bounded fanout) and applies
	// no traffic regulation — the comparison scheme of Fig. 1.
	SchemeCapacityAware Scheme = iota
	// SchemeSigmaRho regulates every input flow with a (σ, ρ) regulator.
	SchemeSigmaRho
	// SchemeSRL regulates every input flow with the paper's (σ, ρ, λ)
	// duty-cycle regulator, staggered round-robin at each host.
	SchemeSRL
	// SchemeAdaptive is the paper's actual algorithm: each host compares
	// the measured average input rate ρ̄ against the threshold ρ* and
	// switches between the (σ, ρ) and (σ, ρ, λ) models at run time.
	SchemeAdaptive
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeCapacityAware:
		return "capacity-aware"
	case SchemeSigmaRho:
		return "sigma-rho"
	case SchemeSRL:
		return "sigma-rho-lambda"
	case SchemeAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Regulated reports whether the scheme uses per-flow regulators.
func (s Scheme) Regulated() bool { return s != SchemeCapacityAware }

// Envelope parameters. Every session uses DefaultEnvelopeMargin (the
// regulators' ρ headroom over the true average rate) and DefaultBurstSec
// (the extremal flows' σ in seconds of their ρ); DefaultEnvelopeHorizonSec
// is Config.EnvelopeHorizonSec's default. The sweep drivers that pre-build
// flow specs once per sweep share them.
const (
	DefaultEnvelopeMargin     = 1.02
	DefaultBurstSec           = 0.15
	DefaultEnvelopeHorizonSec = 30
)

// OneHop reshapes cfg into the paper's Simulation I (Fig. 3/4): K flows
// through K regulators into one general MUX whose output crosses a short
// link to the sink. That is the session's one-host case — host 0 sources
// every group and forwards it to its only child, host 1, topo.WireDelay
// away — so the shape is all that is set here: two hosts on topo.Wire, one
// single-receiver group per flow, and a default horizon of 36 s (three
// extremal periods: enough for the high-load busy period to play out fully
// and repeat). Mix, load, scheme, seeds, discipline and the rest of cfg
// apply as in any session.
func OneHop(cfg Config) Config {
	cfg.NumHosts = 2
	cfg.Topology = topo.Wire{}
	cfg.Groups = make([]GroupSpec, cfg.groupCount())
	for g := range cfg.Groups {
		cfg.Groups[g] = GroupSpec{Source: 0, Members: []int{0, 1}}
	}
	if cfg.Duration == 0 {
		cfg.Duration = 36 * des.Second
	}
	return cfg
}

// SeedOpt is an optional seed. The zero value means "unset", which is
// distinct from an explicitly chosen seed of 0 — the ambiguity the old
// `TrafficSeed uint64` field had, where a caller genuinely passing seed 0
// silently inherited the structural seed. Sweep and scenario drivers set
// it with UseSeed; configs fall back to their structural seed when it is
// unset.
type SeedOpt struct {
	set bool
	val uint64
}

// UseSeed returns a set SeedOpt carrying v (any value, including 0).
func UseSeed(v uint64) SeedOpt { return SeedOpt{set: true, val: v} }

// IsSet reports whether the seed was explicitly chosen.
func (o SeedOpt) IsSet() bool { return o.set }

// Or returns the carried seed, or def when unset.
func (o SeedOpt) Or(def uint64) uint64 {
	if o.set {
		return o.val
	}
	return def
}

// Workload selects what the group flows actually emit.
type Workload int

// Available workloads.
const (
	// WorkloadExtremal drives the groups with deterministic envelope-
	// extremal flows (traffic.Extremal): the admissible worst case the
	// paper's delay bounds are about. Default for the WDB experiments.
	WorkloadExtremal Workload = iota
	// WorkloadVBR drives the groups with the stochastic media models
	// (talkspurt audio, GOP video) — realism ablation and examples.
	WorkloadVBR
)

// BuildSourcesN instantiates n flows (one per group) for the chosen
// workload by cycling the mix's flow pattern — how a scenario drives
// K > 3 groups.
func (w Workload) BuildSourcesN(mix traffic.Mix, n int, seed uint64, margin, burstSec float64) []traffic.Source {
	if w == WorkloadVBR {
		return mix.SourcesN(n, seed)
	}
	return traffic.ExtremalMixN(mix, n, margin, burstSec)
}

// DefaultSpecsN derives the flow envelopes for an n-group instantiation
// of a workload/mix at the default envelope parameters — what a Config
// with only Mix and Seed set would measure. Sweep drivers use it to build
// specs once up front and share them read-only across every point (see
// the load-invariance note on Config.Specs).
func DefaultSpecsN(w Workload, mix traffic.Mix, n int, seed uint64) []FlowSpec {
	return w.BuildSpecsN(mix, n, seed, DefaultEnvelopeMargin, DefaultBurstSec,
		DefaultEnvelopeHorizonSec)
}

// BuildSpecsN derives n per-group flow envelopes by cycling the mix's
// flow pattern (see BuildSourcesN): exact by construction for extremal
// flows, measured for VBR.
func (w Workload) BuildSpecsN(mix traffic.Mix, n int, seed uint64, margin, burstSec, horizonSec float64) []FlowSpec {
	if w == WorkloadVBR {
		return MeasureSpecsN(mix, n, seed, margin, horizonSec)
	}
	envs := traffic.ExtremalSpecsForN(mix, n, margin, burstSec)
	srcs := traffic.ExtremalMixN(mix, n, margin, burstSec)
	specs := make([]FlowSpec, len(envs))
	for i := range envs {
		specs[i] = FlowSpec{Rate: srcs[i].AvgRate(), Sigma: envs[i].Sigma, Rho: envs[i].Rho}
	}
	return specs
}

// FlowSpec characterises one group's real-time flow as the regulators see
// it: the true long-run average rate, and the declared (σ, ρ) envelope
// (ρ is drawn slightly above the average rate so VBR fluctuation does not
// destabilise the shapers; σ is measured from the source model).
type FlowSpec struct {
	Rate  float64 // bits/second, long-run average
	Sigma float64 // bits, envelope burst at Rho
	Rho   float64 // bits/second, envelope rate (>= Rate)
}

// MeasureSpecsN derives the flow specs of an n-group instantiation of the
// mix by running each source model in isolation and measuring its
// tightest (σ, ρ) envelope at ρ = margin × average rate (see
// traffic.MeasureEnvelope). Deterministic given (mix, n, seed, margin,
// horizon). Same-class flows share one stream seed (see Mix.SourcesN), so each
// class is measured once and its spec replicated — at K=16 groups this is
// one audio and one video measurement, not sixteen.
func MeasureSpecsN(mix traffic.Mix, n int, seed uint64, margin, horizonSec float64) []FlowSpec {
	if margin < 1 {
		panic("core: envelope margin must be >= 1")
	}
	srcs := mix.SourcesN(n, seed)
	specs := make([]FlowSpec, len(srcs))
	byClass := make(map[bool]FlowSpec, 2)
	for i, s := range srcs {
		video := mix.VideoFlow(i)
		spec, ok := byClass[video]
		if !ok {
			env := traffic.MeasureEnvelope(s, margin, secs(horizonSec))
			spec = FlowSpec{Rate: s.AvgRate(), Sigma: env.Sigma, Rho: env.Rho}
			byClass[video] = spec
		}
		specs[i] = spec
	}
	return specs
}

// RegulatorBursts returns the bursts the (σ, ρ) regulators are configured
// with, each flow's own measured σᵢ — Remark 1's bound needs nothing else —
// and panics unless every ρᵢ fits inside c. The (σ, ρ, λ) regulators and
// their duty-cycle clocks run Theorem 1's σ*ᵢ instead (hostEnv.sigmaStars):
// it gives every flow the same duty-cycle period, which the stagger needs
// to tile the cycles and DhatHetero assumes. A heterogeneous mix pays the
// (σᵢ−σ*ᵢ)/ρᵢ reshaping of its burstier flows for it, and stays under the
// bound; with σᵢ its (σ, ρ, λ) WDB at load 0.95 was 4× the bound
// (EXPERIMENTS.md §1). A homogeneous mix's σ* is its σ.
func RegulatorBursts(specs []FlowSpec, c float64) []float64 {
	out := make([]float64, len(specs))
	for i, s := range specs {
		// Validate normalisation early: ρᵢ must fit inside C.
		_, rho := calculus.Normalize(s.Sigma, s.Rho, c)
		if rho >= 1 {
			panic("core: flow envelope rate exceeds connection capacity")
		}
		out[i] = s.Sigma
	}
	return out
}

// ThresholdUtilization returns the adaptive algorithm's switching point as
// an aggregate utilisation Σρᵢ/C: K̂·ρ*(K̂), with ρ* from Theorem 4
// (homogeneous mixes) or Theorem 3 (heterogeneous mixes).
func ThresholdUtilization(k int, homogeneous bool) float64 {
	if homogeneous {
		return calculus.ThresholdUtilizationHomog(k)
	}
	return calculus.ThresholdUtilizationHetero(k)
}
