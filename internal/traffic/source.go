package traffic

import "repro/internal/des"

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
	// StartSink is Start into out: a session hands each flow state it
	// already holds instead of a closure bound per flow.
	StartSink(eng *des.Engine, until des.Time, out Sink)
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

// Start implements Source.
func (g *Greedy) Start(eng *des.Engine, until des.Time, emit func(Packet)) {
	g.StartSink(eng, until, SinkFunc(emit))
}

// StartSink implements Source.
func (g *Greedy) StartSink(eng *des.Engine, until des.Time, out Sink) {
	emit := out.Put
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
