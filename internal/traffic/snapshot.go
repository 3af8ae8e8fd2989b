package traffic

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/snap"
)

// Snapshot appends the packet's fields to the open record. Packets are
// serialized wherever they sit in mutable state — regulator and MUX
// queues, in-flight deliveries — so the layout lives here, once.
func (p Packet) Snapshot(w *snap.Writer) {
	w.U64(p.ID)
	w.I64(int64(p.Flow))
	w.F64(p.Size)
	w.I64(int64(p.CreatedAt))
}

// RestorePacket reads a packet written by Packet.Snapshot. Flow indexes
// per-group state wherever the packet lands next, so one outside
// [0, flows) fails the reader here, at the only place packets are decoded.
func RestorePacket(r *snap.Reader, flows int) Packet {
	p := Packet{
		ID:        r.U64(),
		Flow:      int(r.I64()),
		Size:      r.F64(),
		CreatedAt: des.Time(r.I64()),
	}
	if p.Flow < 0 || p.Flow >= flows {
		r.Fail(fmt.Errorf("traffic: snapshot packet flow %d outside [0,%d)", p.Flow, flows))
	}
	return p
}

// Source type tags in a checkpoint (Extremal/Audio/Video.SnapTag).
// Append-only: they appear in snapshot files.
const (
	TagExtremal uint8 = iota + 1
	TagAudio
	TagVideo
)
