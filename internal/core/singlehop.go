package core

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/mux"
	"repro/internal/netsim"
	"repro/internal/regulator"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// SingleHopConfig parameterises one point of Simulation I (Fig. 3/4):
// K real-time flows feed one (σ, ρ, λ)/(σ, ρ)-regulated general MUX whose
// output crosses a short link to the sink.
type SingleHopConfig struct {
	// Mix selects the three flows (Fig. 4's audio/video/heterogeneous).
	Mix traffic.Mix
	// Load is the aggregate normalised input rate Σρᵢ/C ∈ (0, 1).
	Load float64
	// Scheme must be a regulated or adaptive scheme; Simulation I has no
	// tree, so SchemeCapacityAware is rejected.
	Scheme Scheme
	// Duration of traffic generation. Default 36 s (three extremal periods).
	Duration des.Duration
	// Seed drives the VBR models.
	Seed uint64
	// TrafficSeed separately seeds the workload; unset means "use Seed",
	// and an explicitly set value — including 0 — is honoured (see
	// Config.TrafficSeed).
	TrafficSeed SeedOpt
	// EnvelopeMargin and EnvelopeHorizonSec as in Config.
	EnvelopeMargin     float64
	EnvelopeHorizonSec float64
	// Discipline of the general MUX. Default LIFO (general-MUX adversary).
	Discipline mux.Discipline
	// StaggerAligned disables phase offsets (ablation).
	StaggerAligned bool
	// LinkDelay is the propagation to the sink. Default 1 ms.
	LinkDelay des.Duration
	// Workload selects extremal (default) or VBR flows.
	Workload Workload
	// BurstSec sets the extremal flows' σ in seconds of their ρ.
	// Default 0.15.
	BurstSec float64
	// Specs optionally overrides envelope measurement.
	Specs []FlowSpec
}

func (c *SingleHopConfig) fillDefaults() {
	if c.Load <= 0 || c.Load >= 1 {
		panic(fmt.Sprintf("core: load %v outside (0,1)", c.Load))
	}
	if c.Scheme == SchemeCapacityAware {
		panic("core: Simulation I requires a regulated scheme")
	}
	if c.Duration == 0 {
		// Three extremal periods; enough for the high-load busy period to
		// play out fully and repeat.
		c.Duration = 36 * des.Second
	}
	if c.EnvelopeMargin == 0 {
		c.EnvelopeMargin = DefaultEnvelopeMargin
	}
	if c.EnvelopeHorizonSec == 0 {
		c.EnvelopeHorizonSec = DefaultEnvelopeHorizonSec
	}
	if c.LinkDelay == 0 {
		c.LinkDelay = des.Millisecond
	}
	if c.BurstSec == 0 {
		c.BurstSec = DefaultBurstSec
	}
	if !c.TrafficSeed.IsSet() {
		c.TrafficSeed = UseSeed(c.Seed)
	}
}

// SingleHopResult reports one Simulation I run.
type SingleHopResult struct {
	// WDB is the worst-case delay in seconds from packet creation to sink
	// arrival.
	WDB float64
	// MeanDelay is the mean end-to-end delay.
	MeanDelay float64
	// RegulatorMax is the worst per-packet delay inside the regulators.
	RegulatorMax float64
	// MuxMax is the worst per-packet delay inside the MUX.
	MuxMax float64
	// Delivered counts packets that reached the sink.
	Delivered uint64
	// ThresholdUtil is the Theorem 3/4 switching utilisation for this mix.
	ThresholdUtil float64
	// ConnCapacity is the MUX capacity C implied by the load.
	ConnCapacity float64
	// ModeSwitches counts adaptive model changes.
	ModeSwitches int
	// Specs echoes the envelopes used.
	Specs []FlowSpec
}

// RunSingleHop executes one Simulation I point.
func RunSingleHop(cfg SingleHopConfig) SingleHopResult {
	cfg.fillDefaults()
	return RunSingleHopWith(cfg,
		cfg.Workload.BuildSources(cfg.Mix, cfg.TrafficSeed.Or(cfg.Seed), cfg.EnvelopeMargin, cfg.BurstSec))
}

// RunSingleHopWith executes Simulation I with caller-provided flow
// sources; cfg.Specs must describe their envelopes (one spec per source).
func RunSingleHopWith(cfg SingleHopConfig, sources []traffic.Source) SingleHopResult {
	cfg.fillDefaults()
	eng := des.New()

	specs := cfg.Specs
	if specs == nil {
		specs = cfg.Workload.BuildSpecs(cfg.Mix, cfg.TrafficSeed.Or(cfg.Seed), cfg.EnvelopeMargin,
			cfg.BurstSec, cfg.EnvelopeHorizonSec)
	}
	if len(specs) != len(sources) {
		panic("core: specs/sources length mismatch")
	}
	k := len(specs)
	c := cfg.Mix.TotalRate() / cfg.Load
	bursts := RegulatorBursts(specs, c)

	var wdb stats.MaxTracker
	var delays stats.Welford
	var delivered uint64
	sink := func(p traffic.Packet) {
		d := p.Delay(eng.Now()).Seconds()
		wdb.Observe(d, p.ID)
		delays.Add(d)
		delivered++
	}
	pipe := netsim.NewPipe(eng, cfg.LinkDelay, sink)

	m := mux.New(eng, k, c, cfg.Discipline, pipe.Send)

	// Regulator bank(s). Track per-packet regulator residence times by
	// stamping through a wrapper. Sources number their packets sequentially
	// from zero, so the stamps live in an ID-indexed slice per flow (a
	// per-packet map insert/delete was a measurable allocation source); a
	// negative stamp means "not inside the regulator".
	var regMax stats.MaxTracker
	enter := make([][]des.Time, k)
	stamp := func(g int, id uint64) {
		s := enter[g]
		for uint64(len(s)) <= id {
			s = append(s, -1)
		}
		s[id] = eng.Now()
		enter[g] = s
	}
	wrapIn := func(g int, enqueue func(traffic.Packet)) func(traffic.Packet) {
		return func(p traffic.Packet) {
			stamp(g, p.ID)
			enqueue(p)
		}
	}
	regOut := func(g int) func(traffic.Packet) {
		return func(p traffic.Packet) {
			if s := enter[g]; p.ID < uint64(len(s)) && s[p.ID] >= 0 {
				regMax.Observe((eng.Now() - s[p.ID]).Seconds(), p.ID)
				s[p.ID] = -1
			}
			m.Enqueue(p)
		}
	}

	inputs := make([]func(traffic.Packet), k)
	threshold := ThresholdUtilization(k, cfg.Mix.Homogeneous())
	modeSwitches := 0
	switch cfg.Scheme {
	case SchemeSigmaRho:
		for g := 0; g < k; g++ {
			reg := regulator.NewSigmaRho(eng, bursts[g], specs[g].Rho, regOut(g))
			inputs[g] = wrapIn(g, reg.Enqueue)
		}
	case SchemeSRL:
		srls := make([]*regulator.SRL, k)
		for g := 0; g < k; g++ {
			srls[g] = regulator.NewSRL(eng, bursts[g], specs[g].Rho, c, regOut(g))
			inputs[g] = wrapIn(g, srls[g].Enqueue)
		}
		st := regulator.NewStagger(srls...)
		if cfg.StaggerAligned {
			st.StartAligned()
		} else {
			st.Start()
		}
	case SchemeAdaptive:
		// Both banks; a controller switches which one receives input.
		sr := make([]*regulator.SigmaRho, k)
		srls := make([]*regulator.SRL, k)
		for g := 0; g < k; g++ {
			sr[g] = regulator.NewSigmaRho(eng, bursts[g], specs[g].Rho, regOut(g))
			srls[g] = regulator.NewSRL(eng, bursts[g], specs[g].Rho, c, regOut(g))
		}
		st := regulator.NewStagger(srls...)
		useSRL := false
		rate := stats.NewWindowRate(ctlWindow)
		for g := 0; g < k; g++ {
			g := g
			inputs[g] = func(p traffic.Packet) {
				rate.Observe(eng.Now(), p.Size)
				stamp(g, p.ID)
				if useSRL {
					srls[g].Enqueue(p)
				} else {
					sr[g].Enqueue(p)
				}
			}
		}
		// The controller's sampling tick: body first, re-arm after, period
		// from the firing instant (as host.prepareController's).
		var ctl func()
		ctl = func() {
			if want := rate.Rate(eng.Now())/c >= threshold; want != useSRL {
				modeSwitches++
				useSRL = want
				if want {
					st.Start()
				} else {
					st.Stop()
					for _, r := range srls {
						r.SetOn(true) // drain residue
					}
				}
			}
			eng.ScheduleIn(ctlInterval, ctl)
		}
		eng.ScheduleIn(ctlInterval, ctl)
	default:
		panic("core: unsupported single-hop scheme")
	}

	for g, src := range sources {
		src.Start(eng, cfg.Duration, inputs[g])
	}
	eng.RunUntil(cfg.Duration + 60*des.Second)

	return SingleHopResult{
		WDB:           wdb.Max(),
		MeanDelay:     delays.Mean(),
		RegulatorMax:  regMax.Max(),
		MuxMax:        m.Delay.Max(),
		Delivered:     delivered,
		ThresholdUtil: threshold,
		ConnCapacity:  c,
		ModeSwitches:  modeSwitches,
		Specs:         specs,
	}
}
