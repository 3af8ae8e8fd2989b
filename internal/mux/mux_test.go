package mux

import (
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/traffic"
)

func TestMuxServesAtCapacity(t *testing.T) {
	eng := des.New()
	var emissions []des.Time
	m := New(eng, 1, 1_000_000, FIFO, func(p traffic.Packet) {
		emissions = append(emissions, eng.Now())
	})
	eng.Schedule(0, func() {
		for i := 0; i < 10; i++ {
			m.Enqueue(traffic.Packet{ID: uint64(i), Flow: 0, Size: 1000})
		}
	})
	eng.Run()
	gap := des.Seconds(1000 / 1_000_000.0)
	for i := 1; i < len(emissions); i++ {
		if d := emissions[i] - emissions[i-1]; d != gap {
			t.Fatalf("service gap %v, want %v", d, gap)
		}
	}
}

func TestMuxWorkConserving(t *testing.T) {
	// Server never idles while backlog exists: total service time for n
	// packets equals n * size/C from first arrival.
	eng := des.New()
	var last des.Time
	m := New(eng, 2, 500_000, FIFO, func(p traffic.Packet) { last = eng.Now() })
	eng.Schedule(0, func() {
		for i := 0; i < 20; i++ {
			m.Enqueue(traffic.Packet{ID: uint64(i), Flow: i % 2, Size: 1000})
		}
	})
	eng.Run()
	want := des.Seconds(20 * 1000 / 500_000.0)
	if last != want {
		t.Fatalf("drain finished at %v, want %v", last, want)
	}
}

func TestMuxFIFOOrderAcrossFlows(t *testing.T) {
	eng := des.New()
	var ids []uint64
	m := New(eng, 3, 1e6, FIFO, func(p traffic.Packet) { ids = append(ids, p.ID) })
	eng.Schedule(0, func() {
		// Interleave flows; IDs encode global arrival order.
		for i := 0; i < 9; i++ {
			m.Enqueue(traffic.Packet{ID: uint64(i), Flow: i % 3, Size: 1000})
		}
	})
	eng.Run()
	for i, id := range ids {
		if id != uint64(i) {
			t.Fatalf("FIFO violated: served %v", ids)
		}
	}
}

func TestMuxPriorityFavoursLowFlows(t *testing.T) {
	eng := des.New()
	var order []int
	m := New(eng, 2, 1e6, Priority, func(p traffic.Packet) { order = append(order, p.Flow) })
	eng.Schedule(0, func() {
		// Flow 1 arrives first, then flow 0 — priority must reorder
		// everything after the in-service packet.
		for i := 0; i < 5; i++ {
			m.Enqueue(traffic.Packet{ID: uint64(i), Flow: 1, Size: 1000})
		}
		for i := 5; i < 10; i++ {
			m.Enqueue(traffic.Packet{ID: uint64(i), Flow: 0, Size: 1000})
		}
	})
	eng.Run()
	// First served is flow 1 (was alone when service started); the
	// remaining flow-0 packets must all precede remaining flow-1 packets.
	if order[0] != 1 {
		t.Fatalf("first served flow = %d", order[0])
	}
	seenFlow1Again := false
	for _, f := range order[1:] {
		if f == 1 {
			seenFlow1Again = true
		} else if seenFlow1Again {
			t.Fatalf("priority violated: %v", order)
		}
	}
}

func TestMuxRoundRobinAlternates(t *testing.T) {
	eng := des.New()
	var order []int
	m := New(eng, 2, 1e6, RoundRobin, func(p traffic.Packet) { order = append(order, p.Flow) })
	eng.Schedule(0, func() {
		for i := 0; i < 4; i++ {
			m.Enqueue(traffic.Packet{ID: uint64(i), Flow: 0, Size: 1000})
		}
		for i := 4; i < 8; i++ {
			m.Enqueue(traffic.Packet{ID: uint64(i), Flow: 1, Size: 1000})
		}
	})
	eng.Run()
	// After the first served packet the discipline alternates 0,1,0,1...
	for i := 2; i < len(order); i++ {
		if order[i] == order[i-1] {
			t.Fatalf("round robin did not alternate: %v", order)
		}
	}
}

func TestMuxBacklogAccounting(t *testing.T) {
	eng := des.New()
	m := New(eng, 1, 1000, FIFO, func(traffic.Packet) {})
	eng.Schedule(0, func() {
		m.Enqueue(traffic.Packet{ID: 1, Flow: 0, Size: 1000})
		m.Enqueue(traffic.Packet{ID: 2, Flow: 0, Size: 500})
		// First packet entered service immediately: backlog is 500.
		if m.Backlog() != 500 {
			t.Fatalf("backlog = %v", m.Backlog())
		}
		if m.QueueLen(0) != 1 {
			t.Fatalf("queue len = %d", m.QueueLen(0))
		}
	})
	eng.Run()
	if m.Backlog() != 0 {
		t.Fatalf("final backlog = %v", m.Backlog())
	}
}

func TestMuxDelayStats(t *testing.T) {
	eng := des.New()
	m := New(eng, 1, 1000, FIFO, func(traffic.Packet) {})
	eng.Schedule(0, func() {
		m.Enqueue(traffic.Packet{ID: 1, Flow: 0, Size: 1000}) // 1s service
		m.Enqueue(traffic.Packet{ID: 2, Flow: 0, Size: 1000}) // waits 1s + 1s service
	})
	eng.Run()
	if m.Delay.Count() != 2 {
		t.Fatalf("delay samples = %d", m.Delay.Count())
	}
	if math.Abs(m.Delay.Max()-2.0) > 1e-9 {
		t.Fatalf("max delay = %v", m.Delay.Max())
	}
	if m.MaxWait.Max() != m.Delay.Max() {
		t.Fatal("MaxTracker disagrees with Welford max")
	}
	if got := m.MaxWait.Tag(); got != 2 {
		t.Fatalf("worst packet ID = %d", got)
	}
	if m.Served.N != 2 || m.Served.Total != 2000 {
		t.Fatalf("served = %d/%v", m.Served.N, m.Served.Total)
	}
}

func TestMuxCruzBoundHolds(t *testing.T) {
	// K (σ,ρ)-greedy flows through the MUX: per-packet MUX delay must stay
	// below Σσᵢ/(C−Σρᵢ) + one transmission time (Remark 1 / Cruz).
	eng := des.New()
	c := 1_000_000.0
	k := 3
	sigma, rho := 20_000.0, 250_000.0 // Σρ = 0.75C
	m := New(eng, k, c, FIFO, func(traffic.Packet) {})
	until := des.Seconds(20)
	for i := 0; i < k; i++ {
		src := traffic.NewGreedy(i, sigma, rho, 1000)
		src.Start(eng, until, m.Enqueue)
	}
	eng.RunUntil(until + des.Seconds(5))
	bound := (3*sigma)/(c-3*rho) + 1000/c
	if got := m.Delay.Max(); got > bound {
		t.Fatalf("MUX delay %v exceeds Cruz bound %v", got, bound)
	}
	if m.Delay.Count() == 0 {
		t.Fatal("no packets served")
	}
}

func TestMuxLIFOServesNewestFirst(t *testing.T) {
	eng := des.New()
	var ids []uint64
	m := New(eng, 2, 1e6, LIFO, func(p traffic.Packet) { ids = append(ids, p.ID) })
	eng.Schedule(0, func() {
		for i := 0; i < 6; i++ {
			m.Enqueue(traffic.Packet{ID: uint64(i), Flow: i % 2, Size: 1000})
		}
	})
	eng.Run()
	// Packet 0 enters service immediately; the rest leave newest-first.
	want := []uint64{0, 5, 4, 3, 2, 1}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("LIFO order = %v, want %v", ids, want)
		}
	}
}

func TestMuxLIFORealisesBusyPeriodDelay(t *testing.T) {
	// Under LIFO the first packet of a sustained busy period waits almost
	// the entire busy period — far beyond FIFO's Σσ/C — approaching the
	// general-MUX bound Σσ/(C−Σρ).
	runOnce := func(d Discipline) float64 {
		eng := des.New()
		c := 1_000_000.0
		sigma, rho := 30_000.0, 300_000.0 // Σρ = 0.9C
		m := New(eng, 3, c, d, func(traffic.Packet) {})
		until := des.Seconds(10)
		for i := 0; i < 3; i++ {
			src := traffic.NewGreedy(i, sigma, rho, 1000)
			src.Start(eng, until, m.Enqueue)
		}
		eng.RunUntil(until + des.Seconds(5))
		return m.Delay.Max()
	}
	fifo := runOnce(FIFO)
	lifo := runOnce(LIFO)
	if lifo < 3*fifo {
		t.Fatalf("LIFO worst delay %v not far above FIFO %v", lifo, fifo)
	}
	bound := (3 * 30_000.0) / (1_000_000 - 3*300_000.0)
	if lifo > bound+0.01 {
		t.Fatalf("LIFO delay %v exceeds the general-MUX bound %v", lifo, bound)
	}
	// And it should realise a large fraction of that bound.
	if lifo < 0.5*bound {
		t.Fatalf("LIFO delay %v realises under half the bound %v", lifo, bound)
	}
}

func TestMuxBoundDisciplineIndependent(t *testing.T) {
	// The same Cruz bound must hold under all disciplines ("general
	// MUX" = bound is service-order independent).
	for _, d := range []Discipline{LIFO, FIFO, Priority, RoundRobin} {
		eng := des.New()
		c := 1_000_000.0
		sigma, rho := 15_000.0, 200_000.0
		m := New(eng, 3, c, d, func(traffic.Packet) {})
		until := des.Seconds(10)
		for i := 0; i < 3; i++ {
			src := traffic.NewGreedy(i, sigma, rho, 1000)
			src.Start(eng, until, m.Enqueue)
		}
		eng.RunUntil(until + des.Seconds(5))
		bound := (3*sigma)/(c-3*rho) + 1000/c
		if got := m.Delay.Max(); got > bound {
			t.Fatalf("%v: delay %v exceeds bound %v", d, got, bound)
		}
	}
}

func TestMuxValidation(t *testing.T) {
	eng := des.New()
	out := func(traffic.Packet) {}
	for i, fn := range []func(){
		func() { New(eng, 0, 1, FIFO, out) },
		func() { New(eng, 1, 0, FIFO, out) },
		func() { New(eng, 1, 1, FIFO, nil) },
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

func TestMuxRejectsForeignFlow(t *testing.T) {
	eng := des.New()
	m := New(eng, 2, 1000, FIFO, func(traffic.Packet) {})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range flow accepted")
		}
	}()
	eng.Schedule(0, func() { m.Enqueue(traffic.Packet{Flow: 5, Size: 1}) })
	eng.Run()
}

func TestDisciplineString(t *testing.T) {
	for _, d := range []Discipline{FIFO, Priority, RoundRobin, Discipline(99)} {
		if d.String() == "" {
			t.Fatal("empty discipline name")
		}
	}
}

func TestMuxAccessors(t *testing.T) {
	eng := des.New()
	m := New(eng, 4, 123456, FIFO, func(traffic.Packet) {})
	if m.Capacity() != 123456 || m.NumFlows() != 4 {
		t.Fatal("accessor mismatch")
	}
}

func BenchmarkMuxFIFO(b *testing.B) {
	benchMux(b, FIFO)
}

func BenchmarkMuxRoundRobin(b *testing.B) {
	benchMux(b, RoundRobin)
}

func benchMux(b *testing.B, d Discipline) {
	for i := 0; i < b.N; i++ {
		eng := des.New()
		m := New(eng, 3, 10e6, d, func(traffic.Packet) {})
		until := des.Seconds(1)
		for f := 0; f < 3; f++ {
			src := traffic.NewGreedy(f, 0, 2e6, 10_000)
			src.Start(eng, until, m.Enqueue)
		}
		eng.RunUntil(until + des.Seconds(1))
	}
}
