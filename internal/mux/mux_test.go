package mux

import (
	"math"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/des"
	"repro/internal/stats"
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

func TestMuxBacklogAccounting(t *testing.T) {
	eng := des.New()
	m := New(eng, 1, 1000, FIFO, func(traffic.Packet) {})
	eng.Schedule(0, func() {
		m.Enqueue(traffic.Packet{ID: 1, Flow: 0, Size: 1000})
		m.Enqueue(traffic.Packet{ID: 2, Flow: 0, Size: 500})
		// The first packet entered service immediately: one is queued.
		if m.Len() != 1 || !m.Busy() {
			t.Fatalf("queue len = %d, busy = %v", m.Len(), m.Busy())
		}
	})
	eng.Run()
	if m.Len() != 0 || m.Busy() {
		t.Fatalf("final queue len = %d, busy = %v", m.Len(), m.Busy())
	}
}

// delayProbe returns a MUX output callback that records each served
// packet's age, and the worst delay it has seen with that packet's ID.
// Packets entering the MUX at creation (as Greedy sources feed it) age by
// exactly their MUX delay.
func delayProbe(eng *des.Engine) (out func(traffic.Packet), delays *[]float64, worst *stats.MaxTracker) {
	delays, worst = new([]float64), new(stats.MaxTracker)
	return func(p traffic.Packet) {
		d := p.Delay(eng.Now()).Seconds()
		*delays = append(*delays, d)
		worst.Observe(d, p.ID)
	}, delays, worst
}

func TestMuxPerPacketDelaysAndWorstPacket(t *testing.T) {
	eng := des.New()
	out, delays, worst := delayProbe(eng)
	m := New(eng, 1, 1000, FIFO, out)
	eng.Schedule(0, func() {
		m.Enqueue(traffic.Packet{ID: 1, Flow: 0, Size: 1000}) // 1s service
		m.Enqueue(traffic.Packet{ID: 2, Flow: 0, Size: 1000}) // waits 1s + 1s service
	})
	eng.Run()
	if len(*delays) != 2 || math.Abs((*delays)[0]-1) > 1e-9 || math.Abs((*delays)[1]-2) > 1e-9 {
		t.Fatalf("per-packet delays = %v, want [1 2]", *delays)
	}
	if got := worst.Tag(); got != 2 {
		t.Fatalf("worst packet ID = %d", got)
	}
}

func TestMuxCruzBoundHolds(t *testing.T) {
	// K (σ,ρ)-greedy flows through the MUX: per-packet MUX delay must stay
	// below Σσᵢ/(C−Σρᵢ) + one transmission time (Remark 1 / Cruz).
	eng := des.New()
	c := 1_000_000.0
	k := 3
	sigma, rho := 20_000.0, 250_000.0 // Σρ = 0.75C
	out, delays, worst := delayProbe(eng)
	m := New(eng, k, c, FIFO, out)
	until := des.Seconds(20)
	for i := 0; i < k; i++ {
		src := traffic.NewGreedy(i, sigma, rho, 1000)
		src.Start(eng, until, m.Enqueue)
	}
	eng.RunUntil(until + des.Seconds(5))
	bound := (3*sigma)/(c-3*rho) + 1000/c
	if got := worst.Max(); got > bound {
		t.Fatalf("MUX delay %v exceeds Cruz bound %v", got, bound)
	}
	if len(*delays) == 0 {
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
		out, _, worst := delayProbe(eng)
		m := New(eng, 3, c, d, out)
		until := des.Seconds(10)
		for i := 0; i < 3; i++ {
			src := traffic.NewGreedy(i, sigma, rho, 1000)
			src.Start(eng, until, m.Enqueue)
		}
		eng.RunUntil(until + des.Seconds(5))
		return worst.Max()
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
	// The same Cruz bound must hold under both disciplines ("general
	// MUX" = bound is service-order independent).
	for _, d := range []Discipline{LIFO, FIFO} {
		eng := des.New()
		c := 1_000_000.0
		sigma, rho := 15_000.0, 200_000.0
		out, _, worst := delayProbe(eng)
		m := New(eng, 3, c, d, out)
		until := des.Seconds(10)
		for i := 0; i < 3; i++ {
			src := traffic.NewGreedy(i, sigma, rho, 1000)
			src.Start(eng, until, m.Enqueue)
		}
		eng.RunUntil(until + des.Seconds(5))
		bound := (3*sigma)/(c-3*rho) + 1000/c
		if got := worst.Max(); got > bound {
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
		func() { New(eng, 1, 1, Discipline(7), out) },
		func() { NewLine(eng, 1, FIFO, nil) },
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
	for d, want := range map[Discipline]string{LIFO: "lifo", FIFO: "fifo", Discipline(99): "unknown"} {
		if got := d.String(); got != want {
			t.Fatalf("Discipline(%d).String() = %q, want %q", int(d), got, want)
		}
	}
}

func TestMuxAccessors(t *testing.T) {
	eng := des.New()
	m := New(eng, 4, 123456, FIFO, func(traffic.Packet) {})
	if m.c != 123456 || m.line.k != 4 {
		t.Fatal("accessor mismatch")
	}
}

// TestMuxRecordSize pins the record a session holds per connection: what
// every MUX on an engine shares sits in its Line, not in each record. The
// record was 136 bytes, and a 16-byte output record rode beside it, 4.8 MB
// of a started waxman-zipf-512 session's 99,376 connections. The link's
// priced delay took the room of the busy flag, which the packet in
// transmission now says, and the queued-bits total that nothing read went:
// 104 bytes to 96.
func TestMuxRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Mux{}); got > 96 {
		t.Fatalf("MUX record is %d bytes, want at most 96", got)
	}
}

// ends is a Link that records the ends and the delay each packet was sent
// with; it prices a link from→to at from·1000 + to nanoseconds.
type ends [][4]int

func (e *ends) Latency(from, to int) des.Duration { return des.Duration(from*1000 + to) }

func (e *ends) Carry(from, to int, lat des.Duration, p traffic.Packet) {
	*e = append(*e, [4]int{from, to, int(lat), int(p.ID)})
}

// TestMuxSendsOnItsEnds: MUXes made in a slab on one Line share its engine,
// order and link, and each sends what it serves on its own ends, at the
// delay its Link priced once when the MUX was made.
func TestMuxSendsOnItsEnds(t *testing.T) {
	eng := des.New()
	var sent ends
	line := NewLine(eng, 2, LIFO, &sent)
	sl := NewSlab(2, 2)
	a, b := sl.New(line, 1e6, 7, 3, 1), sl.New(line, 1e6, 7, 9, 1)
	if a.line != line || b.line != line {
		t.Fatal("slab MUXes do not point at their Line")
	}
	if from, to := b.Ends(); from != 7 || to != 9 {
		t.Fatalf("Ends() = (%d, %d), want (7, 9)", from, to)
	}
	eng.Schedule(0, func() {
		a.Enqueue(traffic.Packet{ID: 1, Flow: 0, Size: 1000})
		b.Enqueue(traffic.Packet{ID: 2, Flow: 1, Size: 2000})
	})
	eng.Run()
	if a.lat != 7003 || b.lat != 7009 {
		t.Fatalf("priced latencies %v and %v, want 7003 and 7009", a.lat, b.lat)
	}
	if want := (ends{{7, 3, 7003, 1}, {7, 9, 7009, 2}}); !reflect.DeepEqual(sent, want) {
		t.Fatalf("sent %v, want %v", sent, want)
	}
}

func BenchmarkMuxFIFO(b *testing.B) {
	benchMux(b, FIFO)
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
