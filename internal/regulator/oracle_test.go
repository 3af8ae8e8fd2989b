package regulator

import (
	"fmt"
	"testing"

	"repro/internal/des"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// timerSRL is the (σ, ρ, λ) regulator as it was before the shared clock:
// every regulator re-arms its own on/off timer, whether or not it holds a
// packet. It is the oracle the shared clock is held to — N of these fire N
// on-edge events per period in scheduling order, which is the order the
// clock's waiting list must reproduce.
type timerSRL struct {
	eng          *des.Engine
	w, v         des.Duration
	c            float64
	out          func(traffic.Packet)
	q            fifo
	on           bool
	transmitting bool
	cycling      bool
	edge         des.Event
	done         func()
	onFn, offFn  func()
}

func newTimerSRL(eng *des.Engine, sigma, rho, c float64, out func(traffic.Packet)) *timerSRL {
	r := &timerSRL{eng: eng, c: c, out: out, q: newFIFO(),
		w: des.Seconds(sigma / (c - rho)), v: des.Seconds(sigma / rho)}
	r.done = func() {
		r.transmitting = false
		r.out(r.q.pop())
		if r.on {
			r.serve()
		}
	}
	r.onFn = func() {
		r.setOn(true)
		r.edge = r.eng.ScheduleIn(r.w, r.offFn)
	}
	r.offFn = func() {
		r.setOn(false)
		r.edge = r.eng.ScheduleIn(r.v, r.onFn)
	}
	return r
}

func (r *timerSRL) enqueue(p traffic.Packet) {
	r.q.push(p, 0)
	if r.on && !r.transmitting {
		r.serve()
	}
}

func (r *timerSRL) setOn(on bool) {
	if on == r.on {
		return
	}
	r.on = on
	if on && !r.transmitting {
		r.serve()
	}
}

func (r *timerSRL) serve() {
	if !r.on || r.q.empty() {
		return
	}
	r.transmitting = true
	r.eng.ScheduleIn(des.Seconds(r.q.peek().Size/r.c), r.done)
}

// start enters the state the schedule anchored at time zero prescribes for
// Now and arms the regulator's own next edge.
func (r *timerSRL) start(offset des.Duration) {
	now, p := r.eng.Now(), r.w+r.v
	r.cycling = true
	switch pos := (now - offset) % p; {
	case now <= offset:
		r.edge = r.eng.Schedule(offset, r.onFn)
	case pos < r.w:
		r.setOn(true)
		r.edge = r.eng.ScheduleIn(r.w-pos, r.offFn)
	default:
		r.setOn(false)
		r.edge = r.eng.ScheduleIn(p-pos, r.onFn)
	}
}

func (r *timerSRL) stop() {
	r.cycling = false
	r.eng.Cancel(r.edge)
	r.edge = des.Event{}
}

func (r *timerSRL) detach() int {
	if r.cycling {
		r.stop()
	}
	r.setOn(false)
	dropped := r.q.len()
	if r.transmitting {
		dropped--
	}
	return dropped
}

// bank is N same-envelope regulators under one driver, so one script runs
// against the oracle and against the regulator under test.
type bank struct {
	enqueue func(i int, p traffic.Packet)
	follow  func(i int)
	leave   func(i int)
	detach  func(i int) int
}

// gateOut is one packet leaving the bank: when, from which regulator,
// which packet. Emissions are compared in callback order, so two regulators
// emitting at one instant must do so in the same order on both sides.
type gateOut struct {
	at  des.Time
	reg int
	id  uint64
}

const (
	oracleSigma = 10_000.0
	oracleRho   = 200_000.0
	oracleC     = 1_000_000.0
)

func oracleBank(eng *des.Engine, n int, offset des.Duration, emit func(gateOut)) bank {
	regs := make([]*timerSRL, n)
	for i := range regs {
		regs[i] = newTimerSRL(eng, oracleSigma, oracleRho, oracleC, func(p traffic.Packet) {
			emit(gateOut{eng.Now(), i, p.ID})
		})
	}
	return bank{
		enqueue: func(i int, p traffic.Packet) { regs[i].enqueue(p) },
		follow:  func(i int) { regs[i].start(offset) },
		leave:   func(i int) { regs[i].stop() },
		detach:  func(i int) int { return regs[i].detach() },
	}
}

// clockBank holds the N regulators to one shared clock, or — private —
// gives each its own through StartCycle, which must come to the same thing.
// waitLeaves counts the leaves that found the regulator on a waiting list.
func clockBank(eng *des.Engine, n int, offset des.Duration, private bool, waitLeaves *int, emit func(gateOut)) bank {
	regs := make([]*SRL, n)
	for i := range regs {
		regs[i] = NewSRL(eng, oracleSigma, oracleRho, oracleC, func(p traffic.Packet) {
			emit(gateOut{eng.Now(), i, p.ID})
		})
	}
	var shared *Cycle
	return bank{
		enqueue: func(i int, p traffic.Packet) { regs[i].Enqueue(p) },
		follow: func(i int) {
			if private {
				regs[i].StartCycle(offset)
				return
			}
			if shared == nil {
				w, v := DutyCycle(regs[i].Sigma, regs[i].Rho, regs[i].C)
				shared = NewCycle(eng, offset, w, v)
				shared.Start()
			}
			regs[i].Follow(shared)
		},
		leave: func(i int) {
			if regs[i].waiting {
				*waitLeaves++
			}
			regs[i].StopCycle()
		},
		detach: func(i int) int { return regs[i].Detach() },
	}
}

// runScript drives one bank through a seeded script: every regulator but
// the last follows at time zero; arrivals land at random instants, a share
// of them on exact on- and off-edge instants; regulators leave mid-phase
// (some while waiting behind the shut gate) and follow again later, and
// the last one first follows mid-run; near the end one regulator detaches.
// It returns the emissions and the detach's abandoned backlog.
func runScript(seed uint64, n int, mk func(eng *des.Engine, n int, offset des.Duration, emit func(gateOut)) bank) ([]gateOut, int) {
	eng := des.New()
	var out []gateOut
	w, v := des.Seconds(oracleSigma/(oracleC-oracleRho)), des.Seconds(oracleSigma/oracleRho)
	p := w + v
	offset := 3 * w
	b := mk(eng, n, offset, func(e gateOut) { out = append(out, e) })

	rng := xrand.New(seed)
	horizon := 40 * p
	// A mid-phase instant: strictly inside a working period or a vacation.
	midPhase := func() des.Time {
		k := des.Time(rng.Intn(38) + 1)
		if rng.Bool(0.5) {
			return offset + k*p + 1 + des.Time(rng.Intn(int(w-2)))
		}
		return offset + k*p + w + 1 + des.Time(rng.Intn(int(v-2)))
	}
	// Scripted actions are scheduled before anything follows, so at an
	// instant they share with an edge they fire first on both sides.
	var id uint64
	for a := 0; a < 150*n; a++ {
		at := des.Time(rng.Intn(int(horizon)))
		switch rng.Intn(4) {
		case 0: // exactly on an on-edge
			at = offset + des.Time(rng.Intn(40))*p
		case 1: // exactly on an off-edge
			at = offset + des.Time(rng.Intn(40))*p + w
		}
		i, size := rng.Intn(n), float64(500*(1+rng.Intn(8)))
		if rng.Intn(10) == 0 {
			// Serialises in exactly W: served on an on-edge, it completes on
			// the off-edge instant, ahead of the edge.
			size = oracleSigma * oracleC / (oracleC - oracleRho)
		}
		id++
		pkt := traffic.Packet{ID: id, Size: size, CreatedAt: at}
		eng.Schedule(at, func() { b.enqueue(i, pkt) })
	}
	following := make([]bool, n)
	for trip := 0; trip < 3*n; trip++ {
		i, at := rng.Intn(n), midPhase()
		eng.Schedule(at, func() {
			if following[i] {
				b.leave(i)
			} else {
				b.follow(i)
			}
			following[i] = !following[i]
		})
	}
	dropped := -1
	eng.Schedule(offset+35*p+w+w/2, func() { dropped = b.detach(0) })
	for i := 0; i < n-1; i++ {
		b.follow(i)
		following[i] = true
	}
	eng.RunUntil(horizon + 5*p)
	return out, dropped
}

// TestSharedClockMatchesPerRegulatorTimers: N regulators on one shared
// clock — and N on private StartCycle clocks — emit exactly what N
// regulators with their own timers emit: same packets, same instants, same
// order among regulators emitting at one instant.
func TestSharedClockMatchesPerRegulatorTimers(t *testing.T) {
	waitLeaves := 0
	for seed := uint64(1); seed <= 20; seed++ {
		n := 2 + int(seed%5)
		want, wantDropped := runScript(seed, n, oracleBank)
		if len(want) < 20*n {
			t.Fatalf("seed %d: oracle emitted only %d packets — the script is not exercising the gate", seed, len(want))
		}
		for _, private := range []bool{false, true} {
			name := fmt.Sprintf("seed %d, private=%v", seed, private)
			got, gotDropped := runScript(seed, n, func(eng *des.Engine, n int, offset des.Duration, emit func(gateOut)) bank {
				return clockBank(eng, n, offset, private, &waitLeaves, emit)
			})
			if gotDropped != wantDropped {
				t.Errorf("%s: detach abandoned %d packets, oracle %d", name, gotDropped, wantDropped)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d emissions, oracle %d", name, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("%s: gateOut %d is %+v, oracle %+v", name, k, got[k], want[k])
				}
			}
		}
	}
	if waitLeaves == 0 {
		t.Fatal("no regulator left its clock while waiting — the scripts miss that path")
	}
}

// TestSharedClockTicksTwicePerPeriod: the clock's cost is two events per
// period however many regulators follow it and however busy they are, and
// an idle follower costs nothing.
func TestSharedClockTicksTwicePerPeriod(t *testing.T) {
	eng := des.New()
	var regs []*SRL
	for i := 0; i < 50; i++ {
		regs = append(regs, NewSRL(eng, oracleSigma, oracleRho, oracleC, func(traffic.Packet) {}))
	}
	w, v := DutyCycle(oracleSigma, oracleRho, oracleC)
	clock := NewCycle(eng, 0, w, v)
	clock.Start()
	for _, r := range regs {
		r.Follow(clock)
	}
	periods := des.Time(25)
	eng.RunUntil(periods*(w+v) - 1)
	var got uint64
	for _, n := range eng.ExecutedByKind() {
		got += n
	}
	if want := uint64(2 * periods); got != want {
		t.Fatalf("50 idle followers over %d periods executed %d events, want the clock's %d", periods, got, want)
	}
	if by := eng.ExecutedByKind(); by[des.KindSRLOn] != uint64(periods) || by[des.KindSRLOff] != uint64(periods) {
		t.Fatalf("census %v: want %d on-edges and %d off-edges", by, periods, periods)
	}
}
