package regulator

import (
	"testing"

	"repro/internal/des"
	"repro/internal/traffic"
)

// emission is an output packet with its emission time.
type emission struct {
	p  traffic.Packet
	at des.Time
}

func TestSigmaRhoPassesBurstUpToSigma(t *testing.T) {
	// A burst no larger than σ passes with zero delay.
	eng := des.New()
	var got []emission
	reg := NewSigmaRho(eng, 10_000, 1000, func(p traffic.Packet) {
		got = append(got, emission{p, eng.Now()})
	})
	eng.Schedule(des.Second, func() {
		for i := 0; i < 10; i++ {
			reg.Enqueue(traffic.Packet{ID: uint64(i), Size: 1000, CreatedAt: eng.Now()})
		}
	})
	eng.Run()
	if len(got) != 10 {
		t.Fatalf("emitted %d", len(got))
	}
	for _, e := range got {
		if e.at != des.Second {
			t.Fatalf("burst packet delayed to %v", e.at)
		}
	}
}

func TestSigmaRhoDelaysExcessBurst(t *testing.T) {
	// A burst of 2σ: the second half is paced out at ρ.
	eng := des.New()
	var got []emission
	reg := NewSigmaRho(eng, 5_000, 1000, func(p traffic.Packet) {
		got = append(got, emission{p, eng.Now()})
	})
	eng.Schedule(0, func() {
		for i := 0; i < 10; i++ {
			reg.Enqueue(traffic.Packet{ID: uint64(i), Size: 1000, CreatedAt: eng.Now()})
		}
	})
	eng.Run()
	if len(got) != 10 {
		t.Fatalf("emitted %d", len(got))
	}
	// First 5 immediate, then one per 1000/1000 = 1s.
	for i := 0; i < 5; i++ {
		if got[i].at != 0 {
			t.Fatalf("packet %d at %v", i, got[i].at)
		}
	}
	for i := 5; i < 10; i++ {
		want := des.Seconds(float64(i - 4))
		if got[i].at != want {
			t.Fatalf("packet %d at %v, want %v", i, got[i].at, want)
		}
	}
}

func TestSigmaRhoOutputConforms(t *testing.T) {
	// Whatever the input, the output must satisfy (σ + MTU, ρ).
	src := traffic.PaperVideo(0, 9)
	sigma, rho := 80_000.0, 1.2*traffic.VideoRate
	meter := traffic.NewMeter(rho)
	eng := des.New()
	reg := NewSigmaRho(eng, sigma, rho, func(p traffic.Packet) {
		meter.Observe(eng.Now(), p.Size)
	})
	until := des.Seconds(20)
	src.Start(eng, until, reg.Enqueue)
	eng.RunUntil(until + des.Seconds(60))
	if meter.Sigma() > sigma+10_000+1e-9 {
		t.Fatalf("output σ̂ = %v exceeds σ+MTU = %v", meter.Sigma(), sigma+10_000)
	}
}

func TestSigmaRhoOversizedPacket(t *testing.T) {
	// A packet bigger than σ must still get through eventually.
	eng := des.New()
	var got []emission
	reg := NewSigmaRho(eng, 1000, 1000, func(p traffic.Packet) {
		got = append(got, emission{p, eng.Now()})
	})
	eng.Schedule(0, func() {
		reg.Enqueue(traffic.Packet{ID: 1, Size: 5000})
	})
	eng.Run()
	if len(got) != 1 {
		t.Fatalf("oversized packet never emitted")
	}
	// Needs 4000 extra bits at 1000 bps = 4s.
	if got[0].at != des.Seconds(4) {
		t.Fatalf("oversized packet at %v", got[0].at)
	}
}

func TestSigmaRhoTokensCapAtSigma(t *testing.T) {
	eng := des.New()
	reg := NewSigmaRho(eng, 2000, 1000, func(traffic.Packet) {})
	eng.Schedule(des.Seconds(100), func() {
		if reg.refill(); reg.tokens != 2000 {
			t.Fatalf("tokens = %v after long idle, want σ", reg.tokens)
		}
	})
	eng.Run()
}

func TestSigmaRhoValidation(t *testing.T) {
	eng := des.New()
	for i, fn := range []func(){
		func() { NewSigmaRho(eng, -1, 1, func(traffic.Packet) {}) },
		func() { NewSigmaRho(eng, 1, 0, func(traffic.Packet) {}) },
		func() { NewSigmaRho(eng, 1, 1, nil) },
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

func TestFIFOQueueCompaction(t *testing.T) {
	var q fifo
	for i := 0; i < 1000; i++ {
		q.push(traffic.Packet{ID: uint64(i), Size: 1}, 0)
	}
	for i := 0; i < 1000; i++ {
		p := q.pop()
		if p.ID != uint64(i) {
			t.Fatalf("pop %d returned %d", i, p.ID)
		}
	}
	if !q.empty() || q.len() != 0 || q.bits != 0 {
		t.Fatal("queue not empty after draining")
	}
	// Interleaved push/pop exercising compaction.
	for i := 0; i < 500; i++ {
		q.push(traffic.Packet{ID: uint64(i), Size: 2}, 0)
		if i%2 == 1 {
			q.pop()
		}
	}
	if q.len() != 250 {
		t.Fatalf("len = %d", q.len())
	}
	if q.bits != 500 {
		t.Fatalf("bits = %v", q.bits)
	}
}

// TestFIFOBufferHoldsBurst: a queue's first buffer, and the one a full
// restored buffer moves to, has room for a burst of packets like the one
// arriving — ⌈σ/L⌉ + 1 of them — capped at 64 however small the packet,
// and a full buffer at least half consumed slides instead of growing.
func TestFIFOBufferHoldsBurst(t *testing.T) {
	for _, tc := range []struct {
		sigma, size float64
		want        int
	}{{8000, 1000, 9}, {8500, 1000, 10}, {0, 1000, 1}, {1e4, 1e-300, 64}, {1e6, 1000, 64}} {
		var q fifo
		q.push(traffic.Packet{Size: tc.size}, tc.sigma)
		if got := cap(q.buf); got != tc.want {
			t.Errorf("σ = %v, L = %v: first buffer holds %d packets, want %d", tc.sigma, tc.size, got, tc.want)
		}
		restored := fifo{buf: []traffic.Packet{{ID: 7, Size: 1000}}}
		restored.push(traffic.Packet{ID: 8, Size: tc.size}, tc.sigma)
		if got := cap(restored.buf); got != max(2, tc.want) || restored.pop().ID != 7 || restored.pop().ID != 8 {
			t.Errorf("σ = %v, L = %v: a full one-packet buffer moved to %d packets, want %d, in order", tc.sigma, tc.size, got, max(2, tc.want))
		}
	}
	var q fifo
	for i := 0; i < 9; i++ {
		q.push(traffic.Packet{ID: uint64(i), Size: 1000}, 8000)
	}
	for i := 0; i < 5; i++ {
		q.pop()
	}
	buf := &q.buf[:1][0]
	for i := 9; i < 14; i++ {
		q.push(traffic.Packet{ID: uint64(i), Size: 1000}, 8000)
	}
	if &q.buf[:1][0] != buf || q.len() != 9 || q.peek().ID != 5 {
		t.Errorf("a full buffer with 5 of 9 packets served moved or lost order: %d queued, head %d", q.len(), q.peek().ID)
	}
}
