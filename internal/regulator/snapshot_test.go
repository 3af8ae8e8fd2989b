package regulator

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/des"
	"repro/internal/snap"
	"repro/internal/traffic"
)

// record writes fn's output as one record and returns a reader on it and
// the payload's size.
func record(t *testing.T, fn func(w *snap.Writer)) (*snap.Reader, int) {
	t.Helper()
	w := snap.NewWriterSize(1, 0)
	w.Begin(1)
	fn(w)
	w.End()
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := snap.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	r.Next()
	return r, r.Remaining()
}

// TestSnapWidths pins the wire widths a restore sizes slabs by to what the
// Snapshot methods write for an idle regulator of each model and a clock.
func TestSnapWidths(t *testing.T) {
	eng := des.New()
	sink := func(traffic.Packet) {}
	for _, tc := range []struct {
		name  string
		write func(*snap.Writer)
		want  int
	}{
		{"SigmaRho", NewSigmaRho(eng, 1e4, 1e5, sink).Snapshot, SigmaRhoSnapBytes},
		{"SRL", NewSRL(eng, 1e4, 1e5, 1e6, sink).Snapshot, SRLSnapBytes},
		{"Cycle", NewCycle(eng, 0, des.Millisecond, des.Millisecond).Snapshot, CycleSnapBytes},
	} {
		if _, got := record(t, tc.write); got != tc.want {
			t.Errorf("%s writes %d bytes, its SnapBytes constant is %d", tc.name, got, tc.want)
		}
	}
}

// TestSlabRestoreRoundTrip: regulators and a clock restored into a slab
// carry the state Snapshot wrote, with queues at exactly their length and
// a waiting-list seat for the follower, and a slab sized too small still
// restores them.
func TestSlabRestoreRoundTrip(t *testing.T) {
	for _, short := range []bool{false, true} {
		eng := des.New()
		sink := func(traffic.Packet) {}
		sr := NewSigmaRho(eng, 1e4, 1e5, sink)
		srl := NewSRL(eng, 1e4, 1e5, 1e6, sink)
		cy := NewCycle(eng, des.Millisecond, 2*des.Millisecond, 3*des.Millisecond)
		cy.Start()
		srl.Follow(cy)
		for i := 0; i < 5; i++ {
			sr.Enqueue(traffic.Packet{ID: uint64(i), Size: 8e3})
			srl.Enqueue(traffic.Packet{ID: uint64(i), Size: 8e3})
		}
		r, _ := record(t, func(w *snap.Writer) {
			sr.Snapshot(w)
			cy.Snapshot(w)
			srl.Snapshot(w)
		})
		sl := NewSlab(1, 1, 1, new(snap.Arena[traffic.Packet]))
		if short {
			sl = NewSlab(0, 0, 0, new(snap.Arena[traffic.Packet]))
		}
		eng2 := des.New()
		sr2 := sl.RestoreSigmaRho(r, 1, eng2, 1e4, 1e5, traffic.SinkFunc(sink))
		cy2 := sl.RestoreCycle(r, eng2, des.Millisecond, 2*des.Millisecond, 3*des.Millisecond)
		srl2 := sl.RestoreSRL(r, 1, eng2, 1e4, 1e5, 1e6, traffic.SinkFunc(sink))
		if r.Err() != nil || r.Remaining() != 0 {
			t.Fatalf("short=%v: restore: %v, %d bytes unread", short, r.Err(), r.Remaining())
		}
		srl2.Rejoin(r, cy2)
		if sr2.serving {
			t.Errorf("short=%v: (σ, ρ) regulator restored serving before its token wait was reattached", short)
		}
		if sr.serving {
			sr2.Reattach(des.Event{})
		}
		if !reflect.DeepEqual(sr2.q.buf, sr.q.buf[sr.q.head:]) || sr2.tokens != sr.tokens || sr2.serving != sr.serving {
			t.Errorf("short=%v: (σ, ρ) regulator restored as %+v, want %+v", short, sr2, sr)
		}
		if !reflect.DeepEqual(srl2.q.buf, srl.q.buf[srl.q.head:]) || srl2.waiting != srl.waiting || srl2.rank != srl.rank || srl2.transmitting != srl.transmitting {
			t.Errorf("short=%v: (σ, ρ, λ) regulator restored as %+v, want %+v", short, srl2, srl)
		}
		if cap(sr2.q.buf) != sr.QueueLen() || cap(srl2.q.buf) != srl.QueueLen() {
			t.Errorf("short=%v: restored queues have capacity %d and %d for %d and %d packets", short, cap(sr2.q.buf), cap(srl2.q.buf), sr.QueueLen(), srl.QueueLen())
		}
		if cy2.on != cy.on || cy2.nextRank != cy.nextRank || len(cy2.waiting) != len(cy.waiting) {
			t.Errorf("short=%v: clock restored as %+v, want %+v", short, cy2, cy)
		}
		if seats := cap(cy2.waiting); seats != 1 && !short {
			t.Errorf("short=%v: restored clock's waiting list has %d seats for its one follower", short, seats)
		}
	}
}

// TestRestoreCycleSeats: a restored clock seats no more followers than the
// slab has (σ, ρ, λ) regulators, whatever next rank its record claims, and
// a follower whose rank its clock has yet to hand out fails the reader.
func TestRestoreCycleSeats(t *testing.T) {
	eng := des.New()
	cy := NewCycle(eng, 0, des.Millisecond, des.Millisecond)
	cy.nextRank = 1 << 63
	r, _ := record(t, cy.Snapshot)
	sl := NewSlab(0, 1, 2, new(snap.Arena[traffic.Packet]))
	if cy2 := sl.RestoreCycle(r, eng, 0, des.Millisecond, des.Millisecond); cap(cy2.waiting) != 2 {
		t.Errorf("a clock claiming next rank 2^63 seats %d followers in a slab of 2 regulators", cap(cy2.waiting))
	}
	cy.nextRank = 2
	for rank, ok := range []bool{true, true, false, false} {
		srl := NewSRL(eng, 1e4, 1e5, 1e6, func(traffic.Packet) {})
		srl.rank = uint64(rank)
		r, _ := record(t, srl.Snapshot)
		srl2 := sl.RestoreSRL(r, 1, eng, 1e4, 1e5, 1e6, traffic.SinkFunc(func(traffic.Packet) {}))
		if srl2.Rejoin(r, cy); (r.Err() == nil) != ok {
			t.Errorf("rank %d on a clock at next rank 2: err = %v", rank, r.Err())
		}
	}
}

// TestRestoreRejectsTokenLevel: a bucket level serve and refill cannot
// produce — overdrawn, above σ and any packet, not a number — would become a
// token wait no clock can hold, and fails the reader.
func TestRestoreRejectsTokenLevel(t *testing.T) {
	eng := des.New()
	sink := func(traffic.Packet) {}
	for _, tokens := range []float64{-1, math.Inf(1), math.NaN(), 2 * traffic.MaxPacketBits} {
		s := NewSigmaRho(eng, 1e4, 1e5, sink)
		s.tokens = tokens
		r, _ := record(t, s.Snapshot)
		sl := NewSlab(1, 0, 0, new(snap.Arena[traffic.Packet]))
		if sl.RestoreSigmaRho(r, 1, eng, 1e4, 1e5, traffic.SinkFunc(sink)); r.Err() == nil {
			t.Errorf("token level %v restored", tokens)
		}
	}
}
