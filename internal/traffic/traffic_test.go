package traffic

import (
	"math"
	"testing"

	"repro/internal/des"
)

// runSource collects all packets a source emits over dur seconds.
func runSource(src Source, dur float64) []Packet {
	eng := des.New()
	var pkts []Packet
	until := des.Seconds(dur)
	src.Start(eng, until, func(p Packet) { pkts = append(pkts, p) })
	eng.RunUntil(until)
	return pkts
}

func measuredRate(pkts []Packet, dur float64) float64 {
	total := 0.0
	for _, p := range pkts {
		total += p.Size
	}
	return total / dur
}

// cbr is the constant-bit-rate stream: a greedy source with no burst.
func cbr(flow int, rate, packetSize float64) *Greedy { return NewGreedy(flow, 0, rate, packetSize) }

func TestCBRRateAndSpacing(t *testing.T) {
	src := cbr(0, 100_000, 1000)
	pkts := runSource(src, 10)
	rate := measuredRate(pkts, 10)
	if math.Abs(rate-100_000)/100_000 > 0.01 {
		t.Fatalf("CBR rate = %v", rate)
	}
	gap := des.Seconds(1000.0 / 100_000)
	for i := 1; i < len(pkts); i++ {
		if d := pkts[i].CreatedAt - pkts[i-1].CreatedAt; d != gap {
			t.Fatalf("gap %d = %v, want %v", i, d, gap)
		}
	}
}

func TestCBRIDsMonotone(t *testing.T) {
	pkts := runSource(cbr(3, 50_000, 500), 2)
	for i, p := range pkts {
		if p.ID != uint64(i) || p.Flow != 3 {
			t.Fatalf("packet %d: id=%d flow=%d", i, p.ID, p.Flow)
		}
	}
}

func TestCBRStopsAtHorizon(t *testing.T) {
	pkts := runSource(cbr(0, 1e6, 1000), 1)
	for _, p := range pkts {
		if p.CreatedAt >= des.Seconds(1) {
			t.Fatalf("packet emitted at %v past horizon", p.CreatedAt)
		}
	}
}

func TestCBRValidation(t *testing.T) {
	for i, fn := range []func(){
		func() { cbr(0, 0, 100) },
		func() { cbr(0, 100, 0) },
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

func TestGreedyBurstThenSteady(t *testing.T) {
	src := NewGreedy(0, 10_000, 50_000, 1000)
	pkts := runSource(src, 4)
	// First 10 packets form the instantaneous burst.
	burst := 0
	for _, p := range pkts {
		if p.CreatedAt == pkts[0].CreatedAt {
			burst++
		}
	}
	if burst != 10 {
		t.Fatalf("burst packets = %d, want 10", burst)
	}
	// Tail runs at ρ: total ≈ σ + ρ·T.
	total := 0.0
	for _, p := range pkts {
		total += p.Size
	}
	want := 10_000 + 50_000*4.0
	if math.Abs(total-want)/want > 0.02 {
		t.Fatalf("greedy total bits = %v, want ~%v", total, want)
	}
}

func TestGreedyConformsToOwnEnvelope(t *testing.T) {
	src := NewGreedy(0, 20_000, 100_000, 1000)
	eng := des.New()
	meter := NewMeter(100_000)
	until := des.Seconds(5)
	src.Start(eng, until, func(p Packet) { meter.Observe(eng.Now(), p.Size) })
	eng.RunUntil(until)
	if meter.Sigma() > 20_000+1e-9 {
		t.Fatalf("greedy source violates its envelope: σ̂=%v", meter.Sigma())
	}
	// And the measured σ should be nearly the configured burst (tight).
	if meter.Sigma() < 15_000 {
		t.Fatalf("measured σ %v suspiciously loose vs configured 20000", meter.Sigma())
	}
}

func TestAudioLongRunRate(t *testing.T) {
	src := new(Audio).init(0, AudioRate, 7)
	pkts := runSource(src, 120)
	rate := measuredRate(pkts, 120)
	if math.Abs(rate-AudioRate)/AudioRate > 0.15 {
		t.Fatalf("audio long-run rate = %v, want ~%v", rate, AudioRate)
	}
}

func TestAudioIsBursty(t *testing.T) {
	src := new(Audio).init(0, AudioRate, 3)
	pkts := runSource(src, 60)
	// There must be silence gaps much longer than the packet interval.
	peakGap := des.Seconds(src.PacketSize / src.PeakRate())
	longGaps := 0
	for i := 1; i < len(pkts); i++ {
		if pkts[i].CreatedAt-pkts[i-1].CreatedAt > 10*peakGap {
			longGaps++
		}
	}
	if longGaps < 5 {
		t.Fatalf("audio shows only %d silence gaps in 60s", longGaps)
	}
}

func TestAudioPeakRateIdentity(t *testing.T) {
	src := new(Audio).init(0, AudioRate, 1)
	onFrac := 0.250 / (0.250 + 0.060)
	want := AudioRate / onFrac
	if math.Abs(src.PeakRate()-want) > 1 {
		t.Fatalf("peak = %v, want %v", src.PeakRate(), want)
	}
}

func TestVideoLongRunRate(t *testing.T) {
	src := new(Video).init(0, VideoRate, 11)
	pkts := runSource(src, 60)
	rate := measuredRate(pkts, 60)
	if math.Abs(rate-VideoRate)/VideoRate > 0.08 {
		t.Fatalf("video long-run rate = %v, want ~%v", rate, VideoRate)
	}
}

func TestVideoGOPStructure(t *testing.T) {
	// I frames (every 12th) must be larger on average than B frames.
	v := new(Video).init(0, VideoRate, 5)
	v.JitterSig = 0  // isolate the deterministic pattern
	v.SceneBoost = 0 // disable scene changes
	var iSum, bSum float64
	var iN, bN int
	for f := 0; f < 120; f++ {
		size := v.frameSize()
		switch f % 12 {
		case 0:
			iSum += size
			iN++
		case 1, 2:
			bSum += size
			bN++
		}
	}
	iMean, bMean := iSum/float64(iN), bSum/float64(bN)
	if iMean <= 4.5*bMean || iMean >= 5.5*bMean {
		t.Fatalf("I/B ratio = %v, want ~5", iMean/bMean)
	}
}

func TestVideoFramesPacketised(t *testing.T) {
	src := new(Video).init(0, VideoRate, 13)
	pkts := runSource(src, 2)
	for _, p := range pkts {
		if p.Size <= 0 || p.Size > src.PacketSize {
			t.Fatalf("packet size %v outside (0, MTU]", p.Size)
		}
	}
	// Multiple packets share each frame instant.
	sameInstant := 0
	for i := 1; i < len(pkts); i++ {
		if pkts[i].CreatedAt == pkts[i-1].CreatedAt {
			sameInstant++
		}
	}
	if sameInstant == 0 {
		t.Fatal("no frame produced multiple packets")
	}
}

func TestMixProperties(t *testing.T) {
	cases := []struct {
		mix   Mix
		total float64
		homog bool
	}{
		{MixAudio, 3 * AudioRate, true},
		{MixVideo, 3 * VideoRate, true},
		{MixHetero, VideoRate + 2*AudioRate, false},
	}
	for _, c := range cases {
		if c.mix.TotalRateN(3) != c.total {
			t.Fatalf("%v total = %v", c.mix, c.mix.TotalRateN(3))
		}
		if c.mix.Homogeneous() != c.homog {
			t.Fatalf("%v homogeneous = %v", c.mix, c.mix.Homogeneous())
		}
		srcs := c.mix.SourcesN(3, 1)
		if len(srcs) != 3 {
			t.Fatalf("%v sources = %d", c.mix, len(srcs))
		}
		sum := 0.0
		for i, s := range srcs {
			if s == nil {
				t.Fatalf("%v source %d nil", c.mix, i)
			}
			sum += s.AvgRate()
		}
		if math.Abs(sum-c.total) > 1 {
			t.Fatalf("%v source rates sum to %v", c.mix, sum)
		}
	}
}

func TestMixString(t *testing.T) {
	if MixAudio.String() == "" || MixVideo.String() == "" || MixHetero.String() == "" {
		t.Fatal("mix names must be non-empty")
	}
	if Mix(99).String() == "" {
		t.Fatal("unknown mix should still format")
	}
}

func TestPacketDelay(t *testing.T) {
	p := Packet{CreatedAt: des.Seconds(1)}
	if d := p.Delay(des.Seconds(3)); d != des.Seconds(2) {
		t.Fatalf("delay = %v", d)
	}
}

func BenchmarkVideoGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		src := new(Video).init(0, VideoRate, uint64(i))
		eng := des.New()
		until := des.Seconds(1)
		src.Start(eng, until, func(Packet) {})
		eng.RunUntil(until)
	}
}

func BenchmarkAudioGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		src := new(Audio).init(0, AudioRate, uint64(i))
		eng := des.New()
		until := des.Seconds(10)
		src.Start(eng, until, func(Packet) {})
		eng.RunUntil(until)
	}
}
