package des

import (
	"cmp"
	"fmt"
	"slices"
)

// Checkpoint support: the engine can enumerate its pending events as
// (at, prio, seq, kind, arg) records and be rebuilt from them.
//
// Handlers are pointers into this process and do not serialize, so
// persistent events carry a callback-kind tag from the registry below plus
// a small component argument (a slot index in the session's component
// registry). A snapshot walks the queue and emits the tagged records in seq
// order; a restore rebuilds the immutable session structure, advances the
// clock with RestoreNow, and replays the records through SchedulePrioKind
// with the handler resolved from the component the arg names. Replaying in original seq order hands out fresh,
// ascending sequence numbers, which preserves every relative (at, prio,
// seq) comparison — the firing order of the restored engine is exactly
// the original's.
//
// The registry is append-only: kinds are stable format identifiers (they
// appear in snapshot files), so new callback families take new numbers
// and existing numbers never change meaning.
const (
	// KindNone marks an event that cannot rehydrate: snapshotting an
	// engine that holds one fails. The zero value, so untagged Schedule
	// calls stay snapshot-incompatible by default instead of silently
	// misrestoring.
	KindNone uint16 = iota
	// Slot 1 is retired: control actions are coordinator barriers, not events.
	_
	// KindMuxDone is a MUX transmit-completion (arg = mux slot).
	KindMuxDone
	// KindSRRetry is a (σ,ρ) regulator token-wait retry (arg = regulator slot).
	KindSRRetry
	// KindSRLDone is a (σ,ρ,λ) transmit-completion (arg = regulator slot).
	KindSRLDone
	// KindSRLOn / KindSRLOff are the edges of a (σ,ρ,λ) duty-cycle clock
	// (arg = clock slot).
	KindSRLOn
	KindSRLOff
	// KindFlight is an in-flight packet delivery on a pure-delay path
	// (arg = flight-pool node index; the payload is serialized separately).
	KindFlight
	// KindSrcCycle / KindSrcTick are extremal traffic-source callbacks
	// (arg = group/flow index).
	KindSrcCycle
	KindSrcTick
	// KindCtlTick is an adaptive-controller sampling tick (arg = host id).
	KindCtlTick
	// KindAudioTalk / KindAudioWake are VBR audio-source callbacks: the
	// in-talkspurt packet tick and the end-of-silence wake (arg = flow).
	KindAudioTalk
	KindAudioWake
	// KindVideoTick is a VBR video-source frame tick (arg = flow).
	KindVideoTick
	// Slots 14 and 15 are retired: the hop-by-hop underlay they served
	// (router-link serialisation, per-hop propagation) is gone.
	_
	_
	// NumKinds bounds the registry (it is not a kind): tables indexed by
	// kind size themselves with it, so a kind appended above shows up in
	// them as an unrouted entry instead of an out-of-range index.
	NumKinds
)

// kindNames labels the kinds for the executed-by-kind census.
var kindNames = [NumKinds]string{
	KindNone:      "untagged",
	KindMuxDone:   "mux-done",
	KindSRRetry:   "sr-retry",
	KindSRLDone:   "srl-done",
	KindSRLOn:     "srl-on",
	KindSRLOff:    "srl-off",
	KindFlight:    "flight",
	KindSrcCycle:  "src-cycle",
	KindSrcTick:   "src-tick",
	KindCtlTick:   "ctl-tick",
	KindAudioTalk: "audio-talk",
	KindAudioWake: "audio-wake",
	KindVideoTick: "video-tick",
}

// KindName returns a short label for kind ("" for a retired slot).
func KindName(kind uint16) string { return kindNames[kind] }

// PendingEvent is one serializable queue entry.
type PendingEvent struct {
	At   Time
	Prio Time
	Seq  uint64
	Kind uint16
	Arg  uint32
}

// PendingEvents appends every live pending event, in seq order, to buf[:0]
// — the caller's buffer, reused across the engines of one checkpoint —
// and returns it. An event with KindNone makes the engine unsnapshotable
// and returns an error naming its firing time.
func (e *Engine) PendingEvents(buf []PendingEvent) ([]PendingEvent, error) {
	out := slices.Grow(buf[:0], e.pending)
	add := func(ev *event) error {
		if ev.canceled {
			return nil
		}
		if ev.kind == KindNone {
			return fmt.Errorf("des: pending event at %v has no callback kind; this configuration cannot be snapshotted", ev.at)
		}
		out = append(out, PendingEvent{At: ev.at, Prio: ev.prio, Seq: ev.seq, Kind: ev.kind, Arg: ev.arg})
		return nil
	}
	for _, ev := range e.ready[e.readyHead:] {
		if err := add(ev); err != nil {
			return nil, err
		}
	}
	for lvl := range e.levels {
		l := &e.levels[lvl]
		if l.count == 0 {
			continue
		}
		for idx := range l.bucket {
			for ev := l.bucket[idx]; ev != nil; ev = ev.next {
				if err := add(ev); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, ev := range e.overflow.evs {
		if err := add(ev); err != nil {
			return nil, err
		}
	}
	slices.SortFunc(out, func(a, b PendingEvent) int { return cmp.Compare(a.Seq, b.Seq) })
	if len(out) != e.pending {
		return nil, fmt.Errorf("des: queue walk found %d live events, engine counts %d", len(out), e.pending)
	}
	return out, nil
}

// RestoreNow advances the clock to the checkpoint instant without firing
// anything — the restore step between rebuilding the session and replaying
// the serialized events. Moving the clock backwards panics.
func (e *Engine) RestoreNow(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("des: restoring clock to %v before now %v", t, e.now))
	}
	e.now = t
}
