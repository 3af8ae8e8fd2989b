package regulator

import (
	"testing"
	"unsafe"

	"repro/internal/des"
	"repro/internal/snap"
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
	src := traffic.MixVideo.SourcesN(1, 9)[0]
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

// newFIFO is a queue in a packet pool of its own.
func newFIFO() fifo { return fifo{pool: new(snap.Arena[traffic.Packet])} }

func TestFIFOQueueCompaction(t *testing.T) {
	q := newFIFO()
	for i := 0; i < 1000; i++ {
		q.push(traffic.Packet{ID: uint64(i), Size: 1}, 0)
	}
	for i := 0; i < 1000; i++ {
		p := q.pop()
		if p.ID != uint64(i) {
			t.Fatalf("pop %d returned %d", i, p.ID)
		}
	}
	if !q.empty() || q.len() != 0 {
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
		q := newFIFO()
		q.push(traffic.Packet{Size: tc.size}, tc.sigma)
		if got := cap(q.buf); got != tc.want {
			t.Errorf("σ = %v, L = %v: first buffer holds %d packets, want %d", tc.sigma, tc.size, got, tc.want)
		}
		restored := newFIFO()
		restored.buf = []traffic.Packet{{ID: 7, Size: 1000}}
		restored.push(traffic.Packet{ID: 8, Size: tc.size}, tc.sigma)
		if got := cap(restored.buf); got != max(2, tc.want) || restored.pop().ID != 7 || restored.pop().ID != 8 {
			t.Errorf("σ = %v, L = %v: a full one-packet buffer moved to %d packets, want %d, in order", tc.sigma, tc.size, got, max(2, tc.want))
		}
	}
	q := newFIFO()
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

// TestRecordSizes pins the records a session holds per regulator. Each
// grew by one word, its queue's packet pool, when the queues moved into
// one pool per shard: a (σ, ρ) and a (σ, ρ, λ) regulator were 120 bytes.
func TestRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(SigmaRho{}); got > 128 {
		t.Errorf("(σ, ρ) regulator record is %d bytes, want at most 128", got)
	}
	if got := unsafe.Sizeof(SRL{}); got > 128 {
		t.Errorf("(σ, ρ, λ) regulator record is %d bytes, want at most 128", got)
	}
}

// TestSlabQueuesShareOnePool: the regulators of one slab queue in windows
// of the one pool the slab was given, carved back to back — across the end
// of a chunk onto the next — and each queue keeps its own packets, in
// order, wherever its window landed: forty queues take a first buffer each
// (nine packets, a burst of σ/L = 8 plus one), then each grows once to
// eighteen, 22.5 KB of windows in all, more than a chunk.
func TestSlabQueuesShareOnePool(t *testing.T) {
	eng := des.New()
	pool := new(snap.Arena[traffic.Packet])
	sl := NewSlab(0, 0, 40, pool)
	out := make([][]uint64, 40)
	regs := make([]*SRL, 40)
	for i := range regs {
		regs[i] = sl.NewSRL(eng, 8000, 1e4, 1e6, traffic.SinkFunc(func(p traffic.Packet) { out[i] = append(out[i], p.ID) }))
	}
	starts := func() []*traffic.Packet {
		var s []*traffic.Packet
		for _, r := range regs {
			s = append(s, &r.q.buf[:1][0])
		}
		return s
	}
	crossed := 0
	for burst := 0; burst < 2; burst++ {
		for i, r := range regs {
			for j := 0; j < 9; j++ {
				r.Enqueue(traffic.Packet{ID: uint64(1000*i + 9*burst + j), Size: 1000})
			}
			if want := 9 * (burst + 1); cap(r.q.buf) != want {
				t.Fatalf("burst %d: queue %d has room for %d packets, want %d", burst, i, cap(r.q.buf), want)
			}
		}
		// Carved back to back: each window starts where the one before
		// ends, except where a chunk ran out and the next began.
		s, breaks := starts(), 0
		for i := 1; i < len(s); i++ {
			if unsafe.Add(unsafe.Pointer(s[i-1]), cap(regs[i-1].q.buf)*int(unsafe.Sizeof(traffic.Packet{}))) != unsafe.Pointer(s[i]) {
				breaks++
			}
		}
		if breaks > len(s)/4 {
			t.Fatalf("burst %d: %d breaks between %d queues' windows: they are not carved back to back", burst, breaks, len(s))
		}
		crossed += breaks
	}
	if crossed == 0 {
		t.Fatal("the queues' windows never crossed from one chunk onto the next")
	}
	for _, r := range regs {
		r.SetOn(true)
	}
	eng.Run()
	for i, ids := range out {
		if len(ids) != 18 {
			t.Fatalf("queue %d sent %d packets, want 18", i, len(ids))
		}
		for j, id := range ids {
			if id != uint64(1000*i+j) {
				t.Fatalf("queue %d sent packet %d as its %d-th, want %d", i, id, j, 1000*i+j)
			}
		}
	}
}
