package mux

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// perFlow is the MUX as it was before one arrival-ordered queue: a FIFO
// queue per flow, every entry stamped with an arrival sequence, and pick
// choosing among the flows — LIFO the one whose tail is newest (and pops
// that tail), FIFO the one whose head is oldest. It is the oracle the one
// queue is held to.
type perFlow struct {
	eng    *des.Engine
	c      float64
	d      Discipline
	out    func(traffic.Packet)
	queues [][]entry
	heads  []int
	seq    uint64
	busy   bool
	cur    traffic.Packet
	slot   uint32
}

type entry struct {
	p   traffic.Packet
	seq uint64
}

func newPerFlow(eng *des.Engine, k int, c float64, d Discipline, out func(traffic.Packet)) *perFlow {
	m := &perFlow{eng: eng, c: c, d: d, out: out, queues: make([][]entry, k), heads: make([]int, k)}
	m.slot = eng.Register(des.KindMuxDone, m)
	return m
}

func (m *perFlow) Fire(uint16) {
	m.out(m.cur)
	m.serve()
}

func (m *perFlow) Enqueue(p traffic.Packet) {
	m.queues[p.Flow] = append(m.queues[p.Flow], entry{p, m.seq})
	m.seq++
	if !m.busy {
		m.serve()
	}
}

func (m *perFlow) pick() int {
	best, bestSeq := -1, uint64(0)
	for i, q := range m.queues {
		if len(q) == m.heads[i] {
			continue
		}
		if m.d == LIFO {
			if e := q[len(q)-1]; best < 0 || e.seq > bestSeq {
				best, bestSeq = i, e.seq
			}
		} else if e := q[m.heads[i]]; best < 0 || e.seq < bestSeq {
			best, bestSeq = i, e.seq
		}
	}
	return best
}

func (m *perFlow) serve() {
	i := m.pick()
	if i < 0 {
		m.busy = false
		return
	}
	m.busy = true
	var e entry
	if m.d == LIFO {
		last := len(m.queues[i]) - 1
		e, m.queues[i] = m.queues[i][last], m.queues[i][:last]
	} else {
		e = m.queues[i][m.heads[i]]
		m.heads[i]++
	}
	m.cur = e.p
	m.eng.ScheduleInKind(des.Seconds(e.p.Size/m.c), des.KindMuxDone, m.slot)
}

// stamped is a packet and an instant: when it arrives, or when it leaves.
type stamped struct {
	p  traffic.Packet
	at des.Time
}

// arrivalTrace draws n arrivals at a MUX with k flows: a few flows carry
// most packets, sizes come from a handful of values (so service times tie),
// and a third of the arrivals share their predecessor's instant. Arrivals
// start at 1 ms, so every arrival outranks a completion due at the same
// instant in the straight run and in the restored one alike (an arrival is
// scheduled at prio 0, a completion at its own later instant).
func arrivalTrace(seed uint64, k, n int, c float64) []stamped {
	rng := xrand.New(seed)
	hot := []int{rng.Intn(k), rng.Intn(k), rng.Intn(k)}
	sizes := []float64{1000, 1500, 4000, 12000}
	at := des.Millisecond
	out := make([]stamped, n)
	for i := range out {
		if !rng.Bool(1.0 / 3) {
			// Load ≈ 0.86: busy periods long enough to stack up dozens of
			// packets, and idle gaps between them.
			at += des.Seconds(rng.Exp(8000 / c))
		}
		f := rng.Intn(k)
		if rng.Bool(0.7) {
			f = hot[rng.Intn(len(hot))]
		}
		out[i] = stamped{traffic.Packet{ID: uint64(i), Flow: f, Size: sizes[rng.Intn(len(sizes))], CreatedAt: at}, at}
	}
	return out
}

// feeder is the owner of a trace's arrival events. They fire in the order
// they were scheduled — ascending instants at one prio — so the next one to
// fire is always the next arrival.
type feeder struct {
	arrivals []stamped
	enqueue  func(traffic.Packet)
}

func (f *feeder) Fire(uint16) {
	f.enqueue(f.arrivals[0].p)
	f.arrivals = f.arrivals[1:]
}

// schedule puts the arrivals on eng at prio 0.
func schedule(eng *des.Engine, arrivals []stamped, enqueue func(traffic.Packet)) {
	slot := eng.Register(des.KindSrcTick, &feeder{arrivals, enqueue})
	for _, a := range arrivals {
		eng.SchedulePrioKind(a.at, 0, des.KindSrcTick, slot)
	}
}

// runOneQueue serves arrivals through a Mux; with cut > 0 it runs to cut,
// snapshots the MUX, restores it from the bytes into a fresh engine with
// its pending completion re-inserted, and serves the rest there.
func runOneQueue(t *testing.T, k int, c float64, d Discipline, arrivals []stamped, cut des.Time) []stamped {
	t.Helper()
	var served []stamped
	eng := des.New()
	m := New(eng, k, c, d, collect(&served, eng))
	if cut == 0 {
		schedule(eng, arrivals, m.Enqueue)
		eng.Run()
		return served
	}
	i := 0
	for i < len(arrivals) && arrivals[i].at <= cut {
		i++
	}
	schedule(eng, arrivals[:i], m.Enqueue)
	eng.RunUntil(cut)
	evs, err := eng.PendingEvents(nil)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := record(t, m.Snapshot)
	eng2 := des.New()
	eng2.RestoreNow(cut)
	sl := NewSlab(1, m.Len())
	m2 := sl.Restore(r, NewLine(eng2, k, d, sinkLink(collect(&served, eng2))), c, 0, 1, 0)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	for _, ev := range evs {
		if _, err := eng2.Reinsert(ev.At, ev.Prio, ev.Kind, ev.Arg); err != nil || ev.Kind != des.KindMuxDone {
			t.Fatalf("pending event of kind %d is not the MUX's: %v", ev.Kind, err)
		}
	}
	schedule(eng2, arrivals[i:], m2.Enqueue)
	eng2.Run()
	return served
}

// collect returns an output that appends each packet and eng's clock to served.
func collect(served *[]stamped, eng *des.Engine) func(traffic.Packet) {
	return func(p traffic.Packet) { *served = append(*served, stamped{p, eng.Now()}) }
}

// TestOneQueueMatchesPerFlowOracle: on seeded random traces the one
// arrival-ordered queue serves exactly the packets the per-flow oracle
// serves, in the same order, at the same instants — straight through and
// across a Snapshot → Slab.Restore in the middle — for both disciplines and
// K from 1 to 512.
func TestOneQueueMatchesPerFlowOracle(t *testing.T) {
	const c, n = 1e6, 600
	for _, d := range []Discipline{LIFO, FIFO} {
		for _, k := range []int{1, 3, 64, 512} {
			for seed := uint64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("%v/k%d/seed%d", d, k, seed), func(t *testing.T) {
					arrivals := arrivalTrace(seed, k, n, c)
					var want []stamped
					eng := des.New()
					o := newPerFlow(eng, k, c, d, collect(&want, eng))
					schedule(eng, arrivals, o.Enqueue)
					eng.Run()
					if len(want) != n {
						t.Fatalf("oracle served %d of %d packets", len(want), n)
					}
					cut := arrivals[n/2].at + des.Microsecond/2
					for _, cut := range []des.Time{0, cut} {
						if got := runOneQueue(t, k, c, d, arrivals, cut); !sameDepartures(got, want) {
							t.Fatalf("cut at %v: one queue's departures differ from the per-flow oracle's", cut)
						}
					}
				})
			}
		}
	}
}

// sameDepartures compares two departure sequences bit for bit.
func sameDepartures(a, b []stamped) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.at != y.at || x.p.ID != y.p.ID || x.p.Flow != y.p.Flow || x.p.CreatedAt != y.p.CreatedAt ||
			math.Float64bits(x.p.Size) != math.Float64bits(y.p.Size) {
			return false
		}
	}
	return true
}
