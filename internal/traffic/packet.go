// Package traffic defines the packet type and the real-time traffic models
// used throughout the reproduction: constant-bit-rate flows, the paper's
// two media workloads (64 kbps VBR audio and 1.5 Mbps MPEG-1-style VBR
// video), greedy (σ,ρ)-extremal sources for worst-case tests, and arrival-
// envelope measurement that converts an observed stream into the (σ, ρ)
// parameters the regulators are configured with.
package traffic

import "repro/internal/des"

// Packet is one unit of simulated traffic. Packets are small value types:
// overlay replication copies them, so they carry no pointers and no
// ownership semantics.
type Packet struct {
	ID        uint64   // unique within its flow
	Flow      int      // flow index (== group index in multi-group runs)
	Size      float64  // bits
	CreatedAt des.Time // emission time at the original source
}

// Delay returns the packet's age at time now — the end-to-end delay when
// invoked at the moment of final delivery.
func (p Packet) Delay(now des.Time) des.Duration { return now - p.CreatedAt }

// Sink is where a component's output goes: the next stage's input. A
// session points each regulator, MUX and host receiver at state it already
// holds instead of at a closure bound per component.
type Sink interface{ Put(Packet) }

// SinkFunc adapts a plain func to Sink. A func value is pointer-shaped, so
// the conversion allocates nothing.
type SinkFunc func(Packet)

// Put implements Sink.
func (f SinkFunc) Put(p Packet) { f(p) }
