package traffic

import (
	"math"
	"testing"

	"repro/internal/snap"
)

// TestRestorePacketBounds: a packet round-trips through its fixed-width
// layout, and a flow outside [0, flows) or a size that is not in
// (0, MaxPacketBits] — zero, negative, infinite, not a number, absurdly
// large — fails the reader at the decode instead of overflowing a
// serialisation time later.
func TestRestorePacketBounds(t *testing.T) {
	restore := func(p Packet, flows int) (Packet, error) {
		w := snap.NewWriterSize(1, 0)
		w.Begin(1)
		p.Snapshot(w)
		w.End()
		data, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != len(snap.Magic)+4+6+PacketSnapBytes {
			t.Fatalf("a packet occupies %d payload bytes, PacketSnapBytes = %d", len(data)-len(snap.Magic)-10, PacketSnapBytes)
		}
		r, _, _ := snap.NewReader(data)
		r.Next()
		return RestorePacket(r, flows), r.Err()
	}
	good := Packet{ID: 1 << 40, Flow: 2, Size: 10_000, CreatedAt: 123456789}
	if got, err := restore(good, 3); err != nil || got != good {
		t.Fatalf("round trip: got %+v, %v", got, err)
	}
	if _, err := restore(good, 2); err == nil {
		t.Error("flow 2 of 2 accepted")
	}
	for _, size := range []float64{0, -1, math.Inf(1), math.NaN(), 2 * MaxPacketBits, 1e300} {
		bad := good
		bad.Size = size
		if _, err := restore(bad, 3); err == nil {
			t.Errorf("size %v accepted", size)
		}
	}
	if _, err := restore(Packet{Size: MaxPacketBits}, 1); err != nil {
		t.Errorf("size MaxPacketBits refused: %v", err)
	}
}
