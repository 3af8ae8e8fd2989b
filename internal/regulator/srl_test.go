package regulator

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/calculus"
	"repro/internal/des"
	"repro/internal/traffic"
)

func TestSRLDutyCycleIdentities(t *testing.T) {
	sigma, rho, c := 10_000.0, 250_000.0, 1_000_000.0
	w, v := DutyCycle(sigma, rho, c)
	// W = σ/(C−ρ) = 10000/750000 s
	if want := des.Seconds(10_000.0 / 750_000); w != want {
		t.Fatalf("W = %v, want %v", w, want)
	}
	// V = σ/ρ = 10000/250000 = 40ms
	if want := des.Seconds(0.04); v != want {
		t.Fatalf("V = %v, want %v", v, want)
	}
	// P = λσ/ρ with λ = C/(C−ρ) = 1e6/750e3 = 4/3
	wantP := des.Seconds(4.0 / 3.0 * sigma / rho)
	if got := w + v; got < wantP-1 || got > wantP+1 {
		t.Fatalf("P = %v, want %v", got, wantP)
	}
}

// Property (Eq. 1 consequences): for any valid (σ, ρ, C), V = σ/ρ and
// P = λσ/ρ and the duty ratio W/P equals ρ/C.
func TestQuickSRLPeriodIdentities(t *testing.T) {
	f := func(a, b uint16) bool {
		sigma := 1 + float64(a)
		// ρ strictly inside (0, C)
		c := 1_000_000.0
		rho := c * (0.05 + 0.9*float64(b)/65535.0)
		wd, vd := DutyCycle(sigma, rho, c)
		w, v := wd.Seconds(), vd.Seconds()
		p := (wd + vd).Seconds()
		lam := c / (c - rho)
		// W, V, P are des.Durations, truncated to whole nanoseconds, so
		// each identity holds only up to that quantisation: 1ns for the
		// single conversions, 2ns for the P sum, and for the duty ratio
		// W/P the propagated bound ~3ns/P (small σ at high ρ makes W a
		// few µs, where 1ns is far coarser than any relative epsilon).
		if math.Abs(v-sigma/rho) > 1.5e-9 {
			return false
		}
		if math.Abs(p-lam*sigma/rho) > 2.5e-9 {
			return false
		}
		duty := w / p
		return math.Abs(duty-rho/c) < 4e-9/p+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The simulator's duty cycle is the paper's normalised closed form scaled
// to the link: at C = 1, DutyCycle and calculus.WorkPeriod/Vacation agree
// on W and V to the nanosecond the conversion truncates to.
func TestDutyCycleMatchesCalculus(t *testing.T) {
	for _, f := range []struct{ sigma, rho float64 }{
		{0.01, 0.05}, {0.0128, 0.25}, {0.15, 0.333}, {1, 0.5}, {2.5, 0.95},
	} {
		w, v := DutyCycle(f.sigma, f.rho, 1)
		if d := w.Seconds() - calculus.WorkPeriod(f.sigma, f.rho); math.Abs(d) > 1e-9 {
			t.Errorf("(σ, ρ) = (%v, %v): W = %v, calculus %v", f.sigma, f.rho, w, calculus.WorkPeriod(f.sigma, f.rho))
		}
		if d := v.Seconds() - calculus.Vacation(f.sigma, f.rho); math.Abs(d) > 1e-9 {
			t.Errorf("(σ, ρ) = (%v, %v): V = %v, calculus %v", f.sigma, f.rho, v, calculus.Vacation(f.sigma, f.rho))
		}
	}
}

func TestSRLNoOutputDuringVacation(t *testing.T) {
	eng := des.New()
	var emissions []des.Time
	r := NewSRL(eng, 10_000, 500_000, 1_000_000, func(traffic.Packet) {
		emissions = append(emissions, eng.Now())
	})
	// Feed a large standing queue, then run a few duty cycles.
	eng.Schedule(0, func() {
		for i := 0; i < 200; i++ {
			r.Enqueue(traffic.Packet{ID: uint64(i), Size: 1000})
		}
	})
	r.StartCycle(0)
	eng.RunUntil(des.Seconds(0.5))
	r.StopCycle()
	if len(emissions) == 0 {
		t.Fatal("no emissions")
	}
	w, v := DutyCycle(r.Sigma, r.Rho, r.C)
	p := w + v
	for _, at := range emissions {
		phase := at % p
		// Packets may complete right at the W boundary (non-preemptive
		// transmission started before the boundary, packet time = 1ms at C).
		slack := des.Seconds(1000 / 1_000_000.0)
		if phase > w+slack {
			t.Fatalf("emission at %v lands in vacation (phase %v > W %v)", at, phase, w)
		}
	}
}

func TestSRLLongRunRateIsRho(t *testing.T) {
	eng := des.New()
	var bits float64
	rho, c := 300_000.0, 1_000_000.0
	r := NewSRL(eng, 15_000, rho, c, func(p traffic.Packet) { bits += p.Size })
	// Saturate: big standing queue.
	eng.Schedule(0, func() {
		for i := 0; i < 40_000; i++ {
			r.Enqueue(traffic.Packet{ID: uint64(i), Size: 1000})
		}
	})
	r.StartCycle(0)
	dur := des.Seconds(60)
	eng.RunUntil(dur)
	r.StopCycle()
	rate := bits / dur.Seconds()
	if math.Abs(rate-rho)/rho > 0.03 {
		t.Fatalf("saturated SRL long-run output rate = %v, want ~%v", rate, rho)
	}
}

func TestSRLDrainsAtCapacityWhenOn(t *testing.T) {
	eng := des.New()
	var emissions []des.Time
	c := 1_000_000.0
	r := NewSRL(eng, 50_000, 100_000, c, func(p traffic.Packet) {
		emissions = append(emissions, eng.Now())
	})
	eng.Schedule(0, func() {
		for i := 0; i < 20; i++ {
			r.Enqueue(traffic.Packet{ID: uint64(i), Size: 1000})
		}
		r.SetOn(true)
	})
	eng.Run()
	if len(emissions) != 20 {
		t.Fatalf("emitted %d", len(emissions))
	}
	gap := des.Seconds(1000 / c)
	for i := 1; i < len(emissions); i++ {
		if d := emissions[i] - emissions[i-1]; d != gap {
			t.Fatalf("on-state spacing %v, want %v (full capacity)", d, gap)
		}
	}
}

func TestSRLWorkConservingDuringOn(t *testing.T) {
	// Arrivals during an idle on-state leave immediately.
	eng := des.New()
	var at des.Time = -1
	r := NewSRL(eng, 10_000, 100_000, 1_000_000, func(p traffic.Packet) { at = eng.Now() })
	eng.Schedule(0, func() { r.SetOn(true) })
	arrive := des.Millisecond * 2
	eng.Schedule(arrive, func() { r.Enqueue(traffic.Packet{ID: 1, Size: 1000}) })
	eng.Run()
	want := arrive + des.Seconds(1000/1_000_000.0)
	if at != want {
		t.Fatalf("packet emitted at %v, want %v", at, want)
	}
}

func TestSRLNonPreemptiveOff(t *testing.T) {
	// A packet whose transmission spans the off switch still completes.
	eng := des.New()
	var done des.Time = -1
	c := 1000.0 // 1 bit/ms: 1000-bit packet takes 1s
	r := NewSRL(eng, 500, 100, c, func(p traffic.Packet) { done = eng.Now() })
	eng.Schedule(0, func() {
		r.Enqueue(traffic.Packet{ID: 1, Size: 1000})
		r.SetOn(true)
	})
	eng.Schedule(des.Millisecond*100, func() { r.SetOn(false) })
	eng.Run()
	if done != des.Second {
		t.Fatalf("mid-transmission packet finished at %v, want 1s", done)
	}
}

func TestSRLOnTimeTracksDutyRatio(t *testing.T) {
	eng := des.New()
	rho, c := 250_000.0, 1_000_000.0
	w, v := DutyCycle(10_000, rho, c)
	clock := NewCycle(eng, 0, w, v)
	r := NewSRL(eng, 10_000, rho, c, func(traffic.Packet) {})
	r.Follow(clock)
	clock.Start()
	samples, on := 0, 0
	every(eng, des.Millisecond, func() {
		samples++
		if r.On() {
			on++
		}
	})
	eng.RunUntil(des.Seconds(10))
	frac := float64(on) / float64(samples)
	if math.Abs(frac-rho/c) > 0.02 {
		t.Fatalf("on fraction = %v, want ~%v", frac, rho/c)
	}
}

// every probes fn each period for as long as the engine runs.
func every(eng *des.Engine, period des.Duration, fn func()) {
	var tick func()
	tick = func() {
		fn()
		eng.ScheduleIn(period, tick)
	}
	eng.ScheduleIn(period, tick)
}

// Lemma 1 (backlog form): with conformant (σ, ρ) input, the SRL backlog
// never exceeds (1+λ)σ plus one packet.
func TestSRLBacklogBoundLemma1(t *testing.T) {
	eng := des.New()
	sigma, rho, c := 20_000.0, 200_000.0, 1_000_000.0
	r := NewSRL(eng, sigma, rho, c, func(traffic.Packet) {})
	src := traffic.NewGreedy(0, sigma, rho, 1000)
	maxBacklog := 0.0
	every(eng, des.Millisecond, func() {
		if b := r.Backlog(); b > maxBacklog {
			maxBacklog = b
		}
	})
	until := des.Seconds(30)
	src.Start(eng, until, r.Enqueue)
	r.StartCycle(0)
	eng.RunUntil(until)
	r.StopCycle()
	bound := (1+c/(c-rho))*sigma + 1000
	if maxBacklog > bound {
		t.Fatalf("backlog %v exceeds Lemma 1 bound %v", maxBacklog, bound)
	}
}

// Lemma 1 (delay form): with conformant input, per-packet delay through
// the regulator stays below 2λσ/ρ plus one transmission time.
func TestSRLDelayBoundLemma1(t *testing.T) {
	eng := des.New()
	sigma, rho, c := 10_000.0, 300_000.0, 1_000_000.0
	var worst des.Duration
	r := NewSRL(eng, sigma, rho, c, func(p traffic.Packet) {
		if d := p.Delay(eng.Now()); d > worst {
			worst = d
		}
	})
	src := traffic.NewGreedy(0, sigma, rho, 1000)
	until := des.Seconds(30)
	src.Start(eng, until, r.Enqueue)
	r.StartCycle(0)
	eng.RunUntil(until + des.Seconds(5))
	r.StopCycle()
	bound := des.Seconds(2*c/(c-rho)*sigma/rho + 1000/c)
	if worst > bound {
		t.Fatalf("worst delay %v exceeds Lemma 1 bound %v", worst, bound)
	}
	if worst == 0 {
		t.Fatal("no packets measured")
	}
}

func TestSRLValidation(t *testing.T) {
	eng := des.New()
	out := func(traffic.Packet) {}
	for i, fn := range []func(){
		func() { NewSRL(eng, 0, 1, 2, out) },
		func() { NewSRL(eng, 1, 0, 2, out) },
		func() { NewSRL(eng, 1, 2, 2, out) }, // rho == C
		func() { NewSRL(eng, 1, 3, 2, out) }, // rho > C
		func() { NewSRL(eng, 1, 1, 2, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestSRLDoubleStartPanics(t *testing.T) {
	eng := des.New()
	r := NewSRL(eng, 1000, 100, 1000_0, func(traffic.Packet) {})
	r.StartCycle(0)
	defer func() {
		if recover() == nil {
			t.Fatal("double StartCycle did not panic")
		}
	}()
	r.StartCycle(0)
}

func TestSRLStopCycleFreezes(t *testing.T) {
	eng := des.New()
	r := NewSRL(eng, 10_000, 100_000, 1_000_000, func(traffic.Packet) {})
	r.StartCycle(0)
	eng.RunUntil(des.Millisecond)
	r.StopCycle()
	wasOn := r.On()
	eng.RunUntil(des.Seconds(5))
	if r.On() != wasOn {
		t.Fatal("state changed after StopCycle")
	}
}

// startStaggered starts the regulators' duty cycles the way a host does:
// regulator i phased at the summed working periods of those before it.
func startStaggered(regs []*SRL) {
	var offset des.Duration
	for _, r := range regs {
		r.StartCycle(offset)
		w, _ := DutyCycle(r.Sigma, r.Rho, r.C)
		offset += w
	}
}

// maxOn samples the regulators every 500 µs until `until` and returns the
// largest number found on at one instant.
func maxOn(eng *des.Engine, regs []*SRL, until des.Time) int {
	most := 0
	every(eng, des.Microsecond*500, func() {
		on := 0
		for _, r := range regs {
			if r.On() {
				on++
			}
		}
		if on > most {
			most = on
		}
	})
	eng.RunUntil(until)
	for _, r := range regs {
		r.StopCycle()
	}
	return most
}

func TestStaggerInterleavesWorkingPeriods(t *testing.T) {
	eng := des.New()
	c := 1_000_000.0
	rho := 250_000.0 // K=4 at saturation: V = 3W exactly when σ equal
	sigma := 10_000.0
	var regs []*SRL
	for i := 0; i < 4; i++ {
		regs = append(regs, NewSRL(eng, sigma, rho, c, func(traffic.Packet) {}))
	}
	startStaggered(regs)
	// At any instant at most one regulator is on (homogeneous saturated
	// case ⇒ perfect round-robin).
	if most := maxOn(eng, regs, des.Seconds(2)); most > 1 {
		t.Fatalf("%d regulators on at one instant", most)
	}
}

func TestStaggerAlignedCollides(t *testing.T) {
	eng := des.New()
	c := 1_000_000.0
	var regs []*SRL
	for i := 0; i < 3; i++ {
		regs = append(regs, NewSRL(eng, 10_000, 300_000, c, func(traffic.Packet) {}))
		regs[i].StartCycle(0)
	}
	if maxOn(eng, regs, des.Seconds(1)) < 2 {
		t.Fatal("aligned start never collided — stagger ablation is vacuous")
	}
}

func BenchmarkSigmaRhoShaping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := des.New()
		reg := NewSigmaRho(eng, 50_000, traffic.VideoRate, func(traffic.Packet) {})
		src := traffic.MixVideo.SourcesN(1, uint64(i))[0]
		until := des.Seconds(1)
		src.Start(eng, until, reg.Enqueue)
		eng.RunUntil(until + des.Seconds(1))
	}
}

func BenchmarkSRLShaping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := des.New()
		reg := NewSRL(eng, 50_000, traffic.VideoRate, 4*traffic.VideoRate, func(traffic.Packet) {})
		src := traffic.MixVideo.SourcesN(1, uint64(i))[0]
		until := des.Seconds(1)
		src.Start(eng, until, reg.Enqueue)
		reg.StartCycle(0)
		eng.RunUntil(until + des.Seconds(1))
		reg.StopCycle()
	}
}
