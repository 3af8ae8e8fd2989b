package traffic

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/des"
	"repro/internal/snap"
)

// PacketSnapBytes is the width of one serialized packet.
const PacketSnapBytes = 8 + 8 + 8 + 8

// MaxPacketBits bounds the size of a packet a checkpoint may carry: 2³⁰
// bits, five orders of magnitude above the largest packet any source here
// emits (10⁴ bits). A size serialises for Size/C seconds and waits on
// Size/ρ seconds of tokens, so an unbounded one overflows a simulation
// time long after the decode accepted it; under the bound, at any rate a
// flow envelope can carry (≥ 1 bit/s), those times stay inside the clock's
// range.
const MaxPacketBits = 1 << 30

// Snapshot appends the packet's fields to the open record. Packets are
// serialized wherever they sit in mutable state — regulator and MUX
// queues, in-flight deliveries — so the layout lives here, once.
func (p Packet) Snapshot(w *snap.Writer) {
	if b := w.Raw(PacketSnapBytes); b != nil {
		binary.LittleEndian.PutUint64(b[0:], p.ID)
		binary.LittleEndian.PutUint64(b[8:], uint64(p.Flow))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(p.Size))
		binary.LittleEndian.PutUint64(b[24:], uint64(p.CreatedAt))
	}
}

// RestorePacket reads a packet written by Packet.Snapshot. Flow indexes
// per-group state wherever the packet lands next, and Size turns into
// serialisation and token-wait times, so a flow outside [0, flows) or a
// size outside (0, MaxPacketBits] — NaN included — fails the reader here,
// at the only place packets are decoded.
func RestorePacket(r *snap.Reader, flows int) Packet {
	b := r.Raw(PacketSnapBytes)
	if b == nil {
		return Packet{}
	}
	p := Packet{
		ID:        binary.LittleEndian.Uint64(b[0:]),
		Flow:      int(binary.LittleEndian.Uint64(b[8:])),
		Size:      math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
		CreatedAt: des.Time(binary.LittleEndian.Uint64(b[24:])),
	}
	if p.Flow < 0 || p.Flow >= flows {
		r.Fail(fmt.Errorf("traffic: snapshot packet flow %d outside [0,%d)", p.Flow, flows))
	}
	if !(p.Size > 0 && p.Size <= MaxPacketBits) {
		r.Fail(fmt.Errorf("traffic: snapshot packet size %v bits outside (0,%d]", p.Size, MaxPacketBits))
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
