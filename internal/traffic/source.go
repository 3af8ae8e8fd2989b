package traffic

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/xrand"
)

// Source is a traffic generator. Start schedules packet emissions on the
// engine up to (and excluding) the `until` horizon, delivering each packet
// through emit. Sources are single-use: create a fresh one per run.
type Source interface {
	// Name identifies the model for logs and tables.
	Name() string
	// AvgRate is the long-run average rate in bits/second.
	AvgRate() float64
	// Start begins emission. Implementations must be deterministic given
	// their construction-time seed.
	Start(eng *des.Engine, until des.Time, emit func(Packet))
}

// CBR emits fixed-size packets at a perfectly regular interval — the
// simplest conforming (0, rate) stream.
type CBR struct {
	Flow       int
	Rate       float64 // bits/second
	PacketSize float64 // bits
	Offset     des.Duration

	nextID uint64
}

// NewCBR returns a CBR source. It panics on non-positive rate or size.
func NewCBR(flow int, rate, packetSize float64) *CBR {
	if rate <= 0 || packetSize <= 0 {
		panic("traffic: CBR rate and packet size must be positive")
	}
	return &CBR{Flow: flow, Rate: rate, PacketSize: packetSize}
}

// Name implements Source.
func (c *CBR) Name() string { return fmt.Sprintf("cbr-%.0fbps", c.Rate) }

// AvgRate implements Source.
func (c *CBR) AvgRate() float64 { return c.Rate }

// Start implements Source. The emission loop is a self-rescheduling tick:
// emit first, re-arm after, one pooled event per packet.
func (c *CBR) Start(eng *des.Engine, until des.Time, emit func(Packet)) {
	interval := des.Seconds(c.PacketSize / c.Rate)
	if interval <= 0 {
		interval = 1
	}
	var tick func()
	tick = func() {
		now := eng.Now()
		if now >= until {
			return
		}
		emit(Packet{ID: c.nextID, Flow: c.Flow, Size: c.PacketSize, CreatedAt: now})
		c.nextID++
		eng.ScheduleIn(interval, tick)
	}
	eng.ScheduleIn(c.Offset, tick)
}

// Poisson emits fixed-size packets with exponentially distributed
// inter-arrival times (a memoryless stream at the configured average rate).
type Poisson struct {
	Flow       int
	Rate       float64
	PacketSize float64
	rng        *xrand.Rand
	nextID     uint64
}

// NewPoisson returns a Poisson source seeded deterministically.
func NewPoisson(flow int, rate, packetSize float64, seed uint64) *Poisson {
	if rate <= 0 || packetSize <= 0 {
		panic("traffic: Poisson rate and packet size must be positive")
	}
	return &Poisson{Flow: flow, Rate: rate, PacketSize: packetSize, rng: xrand.New(seed)}
}

// Name implements Source.
func (p *Poisson) Name() string { return fmt.Sprintf("poisson-%.0fbps", p.Rate) }

// AvgRate implements Source.
func (p *Poisson) AvgRate() float64 { return p.Rate }

// Start implements Source.
func (p *Poisson) Start(eng *des.Engine, until des.Time, emit func(Packet)) {
	meanGap := p.PacketSize / p.Rate
	var tick func()
	tick = func() {
		now := eng.Now()
		if now >= until {
			return
		}
		emit(Packet{ID: p.nextID, Flow: p.Flow, Size: p.PacketSize, CreatedAt: now})
		p.nextID++
		eng.ScheduleIn(des.Seconds(p.rng.Exp(meanGap)), tick)
	}
	eng.ScheduleIn(des.Seconds(p.rng.Exp(meanGap)), tick)
}

// Greedy emits the extremal trajectory of a (σ, ρ) envelope: the full burst
// σ at start-up, then a steady stream at exactly ρ. This is the adversarial
// input that achieves Cruz's worst-case backlog, used by the regulator and
// bound tests.
type Greedy struct {
	Flow       int
	Sigma      float64 // burst, bits
	Rho        float64 // sustained rate, bits/second
	PacketSize float64
	nextID     uint64
}

// NewGreedy returns a greedy (σ,ρ)-extremal source.
func NewGreedy(flow int, sigma, rho, packetSize float64) *Greedy {
	if sigma < 0 || rho <= 0 || packetSize <= 0 {
		panic("traffic: invalid greedy source parameters")
	}
	return &Greedy{Flow: flow, Sigma: sigma, Rho: rho, PacketSize: packetSize}
}

// Name implements Source.
func (g *Greedy) Name() string { return fmt.Sprintf("greedy(σ=%.0f,ρ=%.0f)", g.Sigma, g.Rho) }

// AvgRate implements Source.
func (g *Greedy) AvgRate() float64 { return g.Rho }

// Start implements Source.
func (g *Greedy) Start(eng *des.Engine, until des.Time, emit func(Packet)) {
	eng.ScheduleIn(0, func() {
		now := eng.Now()
		// Burst: σ bits emitted instantaneously.
		for sent := 0.0; sent+g.PacketSize <= g.Sigma; sent += g.PacketSize {
			emit(Packet{ID: g.nextID, Flow: g.Flow, Size: g.PacketSize, CreatedAt: now})
			g.nextID++
		}
		// Steady tail at exactly ρ.
		interval := des.Seconds(g.PacketSize / g.Rho)
		var tick func()
		tick = func() {
			if eng.Now() >= until {
				return
			}
			emit(Packet{ID: g.nextID, Flow: g.Flow, Size: g.PacketSize, CreatedAt: eng.Now()})
			g.nextID++
			eng.ScheduleIn(interval, tick)
		}
		eng.ScheduleIn(interval, tick)
	})
}
