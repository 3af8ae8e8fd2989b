package mux

import (
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

// TestSnapWidths pins the wire widths a restore sizes slabs by to what
// Snapshot writes: an idle MUX, and what one materialised queue and one
// queued entry add to it.
func TestSnapWidths(t *testing.T) {
	eng := des.New()
	size := func(m *Mux) int {
		_, n := record(t, m.Snapshot)
		return n
	}
	sink := func(traffic.Packet) {}
	idle := New(eng, 4, 1e6, FIFO, sink)
	if got := size(idle); got != SnapBytes {
		t.Errorf("idle MUX writes %d bytes, SnapBytes = %d", got, SnapBytes)
	}
	m := New(eng, 4, 1e6, FIFO, sink)
	m.Enqueue(traffic.Packet{Flow: 1, Size: 1e4}) // goes straight into transmission: an empty queue and cur
	one := size(m)
	m.Enqueue(traffic.Packet{Flow: 1, Size: 1e4})
	if got := size(m) - one; got != SnapEntryBytes {
		t.Errorf("one queued entry adds %d bytes, SnapEntryBytes = %d", got, SnapEntryBytes)
	}
	if got := one - SnapBytes - SnapEntryBytes; got != SnapSlotBytes {
		t.Errorf("one materialised queue adds %d bytes, SnapSlotBytes = %d", got, SnapSlotBytes)
	}
}

// TestSlabRestoreRoundTrip: MUXes restored into a slab carry the state
// Snapshot wrote — queues at exactly their length — serve on as the
// originals would, and a slab sized too small still restores them.
func TestSlabRestoreRoundTrip(t *testing.T) {
	for _, short := range []bool{false, true} {
		eng := des.New()
		var orig []*Mux
		for i := 0; i < 3; i++ {
			m := New(eng, 4, 1e6, LIFO, func(traffic.Packet) {})
			for j := 0; j <= 2*i; j++ {
				m.Enqueue(traffic.Packet{ID: uint64(j), Flow: j % 4, Size: 1e4})
			}
			orig = append(orig, m)
		}
		r, _ := record(t, func(w *snap.Writer) {
			for _, m := range orig {
				m.Snapshot(w)
			}
		})
		queues, entries := 0, 0
		for _, m := range orig {
			q, e := m.Queued()
			queues, entries = queues+q, entries+e
		}
		sl := NewSlab(len(orig), queues, entries)
		if short {
			sl = NewSlab(1, 1, 1)
		}
		eng2 := des.New()
		for i, m := range orig {
			var served []uint64
			got := sl.Restore(r, eng2, 4, 1e6, LIFO, traffic.SinkFunc(func(p traffic.Packet) { served = append(served, p.ID) }))
			if r.Err() != nil {
				t.Fatalf("short=%v: restore of MUX %d: %v", short, i, r.Err())
			}
			if !reflect.DeepEqual(got.slotFlow, m.slotFlow) || got.bits != m.bits || got.busy != m.busy || got.seq != m.seq || got.cur != m.cur {
				t.Fatalf("short=%v: MUX %d restored as %+v, want %+v", short, i, got, m)
			}
			for s := range m.queues {
				want := m.queues[s][m.heads[s]:]
				if !reflect.DeepEqual(got.queues[s], want) && len(want)+len(got.queues[s]) > 0 {
					t.Fatalf("short=%v: MUX %d queue %d restored as %v, want %v", short, i, s, got.queues[s], want)
				}
				if cap(got.queues[s]) != len(want) {
					t.Errorf("short=%v: MUX %d queue %d has capacity %d for %d entries", short, i, s, cap(got.queues[s]), len(want))
				}
			}
			// No completion event was replayed into the new engine, so mark
			// the server idle by hand and let one more arrival drain the
			// restored queues — off the slab, since they are full.
			got.busy = false
			got.Enqueue(traffic.Packet{ID: 99, Flow: 0, Size: 1e4})
			eng2.Run()
			if q, e := got.Queued(); e != 0 || len(served) == 0 || served[0] != 99 {
				t.Fatalf("short=%v: MUX %d served %v and holds %d entries in %d queues after draining", short, i, served, e, q)
			}
		}
	}
	// A flow outside [0, k) fails the reader.
	eng := des.New()
	m := New(eng, 4, 1e6, FIFO, func(traffic.Packet) {})
	m.Enqueue(traffic.Packet{Flow: 3, Size: 1})
	r, _ := record(t, m.Snapshot)
	sl := NewSlab(1, 1, 1)
	if sl.Restore(r, eng, 3, 1e6, FIFO, traffic.SinkFunc(func(traffic.Packet) {})); r.Err() == nil {
		t.Fatal("queue for flow 3 restored into a 3-flow MUX")
	}
}
