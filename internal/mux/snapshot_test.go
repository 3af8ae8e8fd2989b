package mux

import (
	"reflect"
	"testing"
	"unsafe"

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
// Snapshot writes: an idle MUX, and what one queued packet adds to it.
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
	if got := one - SnapBytes; got != traffic.PacketSnapBytes {
		t.Errorf("the packet in transmission adds %d bytes, traffic.PacketSnapBytes = %d", got, traffic.PacketSnapBytes)
	}
	m.Enqueue(traffic.Packet{Flow: 1, Size: 1e4})
	if got := size(m) - one; got != traffic.PacketSnapBytes {
		t.Errorf("one queued packet adds %d bytes, traffic.PacketSnapBytes = %d", got, traffic.PacketSnapBytes)
	}
}

// TestSlabRestoreRoundTrip: MUXes restored into a slab carry the state
// Snapshot wrote — queues carved to the larger of their length and their
// routed flows — serve on as the originals would, and a slab sized too
// small still restores them.
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
		packets := 0
		for _, m := range orig {
			packets += m.Len()
		}
		const routed = 3
		sl := NewSlab(len(orig), packets+routed*len(orig))
		if short {
			sl = NewSlab(1, 1)
		}
		eng2 := des.New()
		for i, m := range orig {
			var served []uint64
			line := NewLine(eng2, 4, LIFO, sinkLink(func(p traffic.Packet) { served = append(served, p.ID) }))
			got := sl.Restore(r, line, 1e6, 0, i+1, routed)
			if r.Err() != nil {
				t.Fatalf("short=%v: restore of MUX %d: %v", short, i, r.Err())
			}
			want := m.q[m.head:]
			if got.line != line || got.from != 0 || got.to != int32(i+1) ||
				got.Busy() != m.Busy() || got.cur != m.cur || got.head != 0 ||
				!reflect.DeepEqual(got.q, want) && len(want)+len(got.q) > 0 {
				t.Fatalf("short=%v: MUX %d restored as %+v, want %+v", short, i, got, m)
			}
			if cap(got.q) != max(len(want), routed) {
				t.Errorf("short=%v: MUX %d queue has capacity %d for %d packets and %d routed flows", short, i, cap(got.q), len(want), routed)
			}
			// No completion event was re-inserted into the new engine, so mark
			// the server idle by hand and let one more arrival drain the
			// restored queue.
			got.cur.Flow = idle
			got.Enqueue(traffic.Packet{ID: 99, Flow: 0, Size: 1e4})
			eng2.Run()
			if got.Len() != 0 || len(served) == 0 || served[0] != 99 {
				t.Fatalf("short=%v: MUX %d served %v and holds %d packets after draining", short, i, served, got.Len())
			}
		}
	}
	// A flow outside [0, k) fails the reader.
	eng := des.New()
	m := New(eng, 4, 1e6, FIFO, func(traffic.Packet) {})
	m.Enqueue(traffic.Packet{Flow: 3, Size: 1})
	r, _ := record(t, m.Snapshot)
	sl := NewSlab(1, 1)
	if sl.Restore(r, NewLine(eng, 3, FIFO, sinkLink(func(traffic.Packet) {})), 1e6, 0, 1, 0); r.Err() == nil {
		t.Fatal("packet of flow 3 restored into a 3-flow MUX")
	}
}

// TestSlabRestoreRejectsStalled: a record of an idle MUX with packets
// queued — which nothing would ever serve — fails the reader.
func TestSlabRestoreRejectsStalled(t *testing.T) {
	eng := des.New()
	line := NewLine(eng, 2, FIFO, sinkLink(func(traffic.Packet) {}))
	p := traffic.Packet{Flow: 1, Size: 1e4}
	r, _ := record(t, func(w *snap.Writer) {
		w.Len(1)
		p.Snapshot(w)
		w.Bool(false)
	})
	sl := NewSlab(1, 1)
	if sl.Restore(r, line, 1e6, 0, 1, 0); r.Err() == nil {
		t.Error("idle MUX with a queue restored without error")
	}
}

// TestSlabEnqueueAllocFree: a MUX made in a slab — built, or restored
// empty — queues up to the packets it was carved room for without
// allocating.
func TestSlabEnqueueAllocFree(t *testing.T) {
	const routed = 3
	eng := des.New()
	line := NewLine(eng, 8, FIFO, sinkLink(func(traffic.Packet) {}))
	sl := NewSlab(2, 2*routed)
	r, _ := record(t, New(eng, 8, 1e6, FIFO, func(traffic.Packet) {}).Snapshot)
	for name, m := range map[string]*Mux{
		"built":    sl.New(line, 1e6, 0, 1, routed),
		"restored": sl.Restore(r, line, 1e6, 0, 2, routed),
	} {
		m.cur.Flow = 0 // hold service so the arrivals queue
		fill := func() {
			for f := 0; f < routed; f++ {
				m.Enqueue(traffic.Packet{Flow: 2 * f, Size: 1e4})
			}
			m.q = m.q[:0]
		}
		if n := testing.AllocsPerRun(100, fill); n != 0 {
			t.Fatalf("filling a %s MUX to its %d carved packets allocated %v objects per run", name, routed, n)
		}
	}
}

// TestQueueGrowsIntoLinePool: a queue that outgrows the room its slab
// carved moves to a window of its Line's packet pool, twice its size, and
// serves what it held in the order its discipline gives; MUXes of one Line
// grow into the one pool, window after window.
func TestQueueGrowsIntoLinePool(t *testing.T) {
	for _, d := range []Discipline{LIFO, FIFO} {
		eng := des.New()
		var served []uint64
		line := NewLine(eng, 2, d, sinkLink(func(p traffic.Packet) { served = append(served, p.ID) }))
		sl := NewSlab(2, 2)
		a, b := sl.New(line, 1e6, 0, 1, 1), sl.New(line, 1e6, 0, 2, 1)
		for _, m := range []*Mux{a, b} {
			m.cur.Flow = 0 // hold service so the arrivals queue
			for i := 0; i < 5; i++ {
				m.Enqueue(traffic.Packet{ID: uint64(i), Flow: i % 2, Size: 1e4})
			}
			if len(m.q) != 5 || cap(m.q) != 8 {
				t.Fatalf("%v: five arrivals in room for one: queue %d/%d, want 5/8", d, len(m.q), cap(m.q))
			}
		}
		next := line.Pool().Take(1)
		end := unsafe.Add(unsafe.Pointer(&b.q[0]), 8*unsafe.Sizeof(traffic.Packet{}))
		if unsafe.Pointer(&next[0]) != end {
			t.Fatalf("%v: the pool's next window is not where the last grown queue ends", d)
		}
		a.cur.Flow = idle
		a.serve()
		eng.Run()
		want := []uint64{4, 3, 2, 1, 0}
		if d == FIFO {
			want = []uint64{0, 1, 2, 3, 4}
		}
		if !reflect.DeepEqual(served, want) {
			t.Fatalf("%v: served %v, want %v", d, served, want)
		}
	}
}
