package des

import (
	"cmp"
	"fmt"
	"slices"
)

// Checkpoint support: the engine can enumerate its pending events as
// (at, prio, seq, kind, arg) records and be rebuilt from them.
//
// An event is its kind and arg and nothing else, so it serializes as it
// stands: a snapshot walks the queue and emits the records in seq order; a
// restore reconstructs the session structure — which registers every owner
// again — advances the clock with RestoreNow, and re-inserts the records
// with Reinsert. Re-inserting in original seq order hands out fresh,
// ascending sequence numbers, which preserves every relative (at, prio,
// seq) comparison — the firing order of the restored engine is exactly
// the original's.
//
// The registry is append-only: kinds are stable format identifiers (they
// appear in snapshot files), so new event families take new numbers and
// existing numbers never change meaning.
const (
	// KindNone is a closure parked in the engine's closure slab (Schedule).
	// A func does not serialize: snapshotting an engine that holds one
	// fails.
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
	// It is the pooled family: the flight pool owns it whole.
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
	// KindCrossShard is a cross-shard record released into its
	// destination engine (arg = delivery-node slot). Released records
	// fire inside the epoch that releases them, so none is pending at a
	// checkpoint: the record itself rides in the coordinator's buffers.
	KindCrossShard
	// NumKinds bounds the registry (it is not a kind): tables indexed by
	// kind size themselves with it.
	NumKinds
)

// kinds labels each kind for the executed-by-kind census ("" is a retired
// slot) and names the kind whose owner table it fires from: the kinds one
// owner fires — a family — share the table of the first of them, so an
// owner registers once however many kinds it fires. local marks the kinds
// whose owners live in this process alone — a closure, a coordinator's
// delivery node — which a snapshot refuses and a restore never re-inserts.
// pool marks a family one Pool owns whole (Engine.OwnPool): a pool's
// records come and go by the thousand, and a table slot per record would
// be a table to regrow as the pool grows.
var kinds = [NumKinds]struct {
	name  string
	table uint16
	local bool
	pool  bool
}{
	KindNone:       {"untagged", KindNone, true, false},
	KindMuxDone:    {"mux-done", KindMuxDone, false, false},
	KindSRRetry:    {"sr-retry", KindSRRetry, false, false},
	KindSRLDone:    {"srl-done", KindSRLDone, false, false},
	KindSRLOn:      {"srl-on", KindSRLOn, false, false},
	KindSRLOff:     {"srl-off", KindSRLOn, false, false},
	KindFlight:     {"flight", KindFlight, false, true},
	KindSrcCycle:   {"src-cycle", KindSrcCycle, false, false},
	KindSrcTick:    {"src-tick", KindSrcCycle, false, false},
	KindCtlTick:    {"ctl-tick", KindCtlTick, false, false},
	KindAudioTalk:  {"audio-talk", KindAudioTalk, false, false},
	KindAudioWake:  {"audio-wake", KindAudioTalk, false, false},
	KindVideoTick:  {"video-tick", KindVideoTick, false, false},
	KindCrossShard: {"cross-shard", KindCrossShard, true, false},
}

// KindName returns a short label for kind ("" for a retired slot).
func KindName(kind uint16) string { return kinds[kind].name }

// PendingEvent is one serializable queue entry.
type PendingEvent struct {
	At   Time
	Prio Time
	Seq  uint64
	Kind uint16
	Arg  uint32
}

// Pending reports how many live (scheduled, not canceled) events are
// waiting in the queue: the length of what PendingEvents returns.
func (e *Engine) Pending() int { return e.pending }

// PendingEvents appends every live pending event, in seq order, to buf[:0]
// — the caller's buffer, reused across the engines of one checkpoint —
// and returns it. A pending closure (or any process-local kind) makes the
// engine unsnapshotable and returns an error naming its firing time.
func (e *Engine) PendingEvents(buf []PendingEvent) ([]PendingEvent, error) {
	out := slices.Grow(buf[:0], e.pending)
	add := func(ev *event) error {
		if ev.canceled {
			return nil
		}
		if kinds[ev.kind].local {
			return fmt.Errorf("des: pending %s event at %v lives in this process only; this configuration cannot be snapshotted", kinds[ev.kind].name, ev.at)
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

// Reinsert schedules one serialized pending event, (at, prio, kind, arg)
// as PendingEvents reported it, for a restore that re-inserts an engine's
// events in their original order. The record comes from bytes, so
// anything it cannot name — a time before Now, a kind with no owner table
// or a process-local one, a slot past its table or on a hole — is an
// error, not a panic.
func (e *Engine) Reinsert(at, prio Time, kind uint16, arg uint32) (Event, error) {
	if at < e.now {
		return Event{}, fmt.Errorf("des: event at %v precedes now %v", at, e.now)
	}
	if kind >= NumKinds || kinds[kind].name == "" || kinds[kind].local {
		return Event{}, fmt.Errorf("des: event kind %d has no owner a restore can name", kind)
	}
	if kinds[kind].pool {
		if p := e.pools[kinds[kind].table]; p == nil || !p.Holds(arg) {
			return Event{}, fmt.Errorf("des: %s event names record %d, which its pool does not hold", kinds[kind].name, arg)
		}
	} else if t := e.owners[kinds[kind].table]; int(arg) >= len(t) || t[arg] == nil {
		return Event{}, fmt.Errorf("des: %s event names slot %d, where its table (%d slots) holds no owner", kinds[kind].name, arg, len(t))
	}
	return e.SchedulePrioKind(at, prio, kind, arg), nil
}

// RestoreNow advances the clock to the checkpoint instant without firing
// anything — the restore step between rebuilding the session and
// re-inserting the serialized events. Moving the clock backwards panics.
func (e *Engine) RestoreNow(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("des: restoring clock to %v before now %v", t, e.now))
	}
	e.now = t
}
