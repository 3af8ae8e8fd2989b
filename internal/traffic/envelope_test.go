package traffic

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/des"
	"repro/internal/xrand"
)

func TestMeterCBRHasTinySigma(t *testing.T) {
	// A CBR stream at exactly ρ needs only one packet of burst.
	src := cbr(0, 100_000, 1000)
	eng := des.New()
	m := NewMeter(100_000)
	until := des.Seconds(10)
	src.Start(eng, until, func(p Packet) { m.Observe(eng.Now(), p.Size) })
	eng.RunUntil(until)
	if m.Sigma() > 1001 {
		t.Fatalf("CBR σ̂ = %v, want <= packet size", m.Sigma())
	}
	if !m.primed {
		t.Fatal("meter saw no packets")
	}
}

func TestMeterDetectsBurst(t *testing.T) {
	m := NewMeter(1000) // ρ = 1000 bits/s
	// 5000 bits at t=0 instantaneously: σ must be ≈ 5000.
	for i := 0; i < 5; i++ {
		m.Observe(0, 1000)
	}
	if math.Abs(m.Sigma()-5000) > 1e-6 {
		t.Fatalf("σ̂ = %v, want 5000", m.Sigma())
	}
}

func TestMeterBurstAfterIdle(t *testing.T) {
	m := NewMeter(1000)
	m.Observe(0, 100)
	// Long idle: deviation drops, then a burst at t=10s.
	for i := 0; i < 4; i++ {
		m.Observe(des.Seconds(10), 1000)
	}
	// The burst of 4000 bits in zero time needs σ ≈ 4000 regardless of
	// earlier credit (Cruz's envelope has no credit accumulation).
	if m.Sigma() < 3999 {
		t.Fatalf("σ̂ = %v, want >= 4000", m.Sigma())
	}
}

func TestMeterConforms(t *testing.T) {
	m := NewMeter(1e6)
	m.Observe(0, 500)
	if m.Sigma() > 500+1e-9 {
		t.Fatalf("σ̂ = %v should conform to 500", m.Sigma())
	}
	if m.Sigma() <= 100 {
		t.Fatal("should not conform to σ=100 after 500-bit burst")
	}
}

func TestMeterTotalBits(t *testing.T) {
	m := NewMeter(100)
	m.Observe(0, 10)
	m.Observe(des.Second, 20)
	if m.cum != 30 {
		t.Fatalf("total = %v", m.cum)
	}
}

func TestMeterValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative rho accepted")
		}
	}()
	NewMeter(-1)
}

// Property: for any arrival sequence, the measured σ makes the envelope
// tight — replaying the arrivals against (σ̂, ρ) never violates it, and
// (σ̂ − ε, ρ) is violated.
func TestQuickMeterTightness(t *testing.T) {
	rng := xrand.New(55)
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		rho := 1000.0
		m := NewMeter(rho)
		now := des.Time(0)
		type arr struct {
			t    des.Time
			bits float64
		}
		var arrivals []arr
		for _, v := range raw {
			now += des.Duration(rng.Intn(100)) * des.Millisecond
			bits := float64(v) * 10
			if bits == 0 {
				continue
			}
			arrivals = append(arrivals, arr{now, bits})
			m.Observe(now, bits)
		}
		if len(arrivals) == 0 {
			return true
		}
		sigma := m.Sigma()
		// Replay: cumulative arrivals minus envelope must stay <= 0 for
		// every pair (t1 just-before-arrival, t2 at-arrival).
		for i := range arrivals {
			var cum float64
			// deviation check across all windows starting at j
			for j := i; j < len(arrivals); j++ {
				cum += arrivals[j].bits
				span := (arrivals[j].t - arrivals[i].t).Seconds()
				if cum > sigma+rho*span+1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureEnvelopeVideo(t *testing.T) {
	env := MeasureEnvelope(new(Video).init(0, VideoRate, 21), 1.0, des.Seconds(20))
	if env.Rho != VideoRate {
		t.Fatalf("rho = %v", env.Rho)
	}
	// A VBR video must need a non-trivial burst allowance at ρ = mean:
	// at least one I-frame's worth, at most a few GOPs.
	if env.Sigma < 50_000 || env.Sigma > 3_000_000 {
		t.Fatalf("video σ = %v outside plausible band", env.Sigma)
	}
}

func TestMeasureEnvelopeMarginShrinksSigma(t *testing.T) {
	tight := MeasureEnvelope(new(Video).init(0, VideoRate, 21), 1.0, des.Seconds(20))
	loose := MeasureEnvelope(new(Video).init(0, VideoRate, 21), 1.2, des.Seconds(20))
	if loose.Sigma >= tight.Sigma {
		t.Fatalf("σ at margin 1.2 (%v) should be below σ at margin 1.0 (%v)",
			loose.Sigma, tight.Sigma)
	}
}

func TestMeasureEnvelopePanicsOnBadMargin(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MeasureEnvelope(new(Audio).init(0, AudioRate, 1), 0, des.Second)
}

func BenchmarkMeterObserve(b *testing.B) {
	m := NewMeter(1e6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Observe(des.Time(i)*des.Microsecond, 1000)
	}
}
