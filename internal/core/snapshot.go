package core

// Checkpoint/restore for whole sessions: a versioned flat binary snapshot
// (internal/snap) captures the full mutable runtime of a quiesced session —
// pending engine events, component queues and counters, per-group trees and
// membership, plane state, measurement accumulators, source positions, and
// the coordinator's mailboxes — while everything derivable from the Config
// is recomputed, not serialized: the restored session rebuilds the
// substrate (network, envelopes, initial trees) from the same Config, then
// overwrites the mutable half from the snapshot.
//
// The contract, pinned by the golden differential tests: for any supported
// configuration, run-to-T equals run-to-T/2 → Snapshot → Restore →
// run-to-T, bit for bit, at every shard count. The mechanism rests on
// three invariants:
//
//   - Quiesce: Snapshot is taken between RunTo calls, so every event and
//     barrier at or before the checkpoint instant T has fired, every
//     pending event is strictly after T, every engine is parked at exactly
//     T, and all mailboxes are drained into sorted pending buffers by
//     CheckpointDrain.
//   - Kind registry: every engine event carries a des.Kind* tag plus a
//     component-slot argument, so closures rehydrate by re-binding the
//     component's stored callback. Control-plane, fault, and reopt actions
//     are never engine events: they are coordinator barriers, which the
//     restore re-registers from the Config, filtered to instants after T.
//   - Replay order: serialized events replay through SchedulePrioKind in
//     original sequence order with their original (at, prio) stamps. Fresh
//     ascending sequence numbers preserve every relative (at, prio, seq)
//     comparison, so the restored firing order is the original's.
//
// Every supported configuration snapshots: the adaptive controller ticks,
// the VBR audio/video sources, and the QueuedTransit router links all
// carry kind tags and rehydrate. The des engine's KindNone check backstops
// anything new that forgets to tag.

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/mux"
	"repro/internal/netsim"
	"repro/internal/overlay"
	"repro/internal/regulator"
	"repro/internal/snap"
	"repro/internal/traffic"
)

// SnapshotVersion is the snapshot format version. Bump on any layout
// change; Restore rejects other versions.
//
// v2: type-tagged source records (extremal/audio/video), per-host
// controller window state, and a fabric record for QueuedTransit link
// queues.
//
// v3: one layout at every shard count — per shard components, [fabric],
// events, stats (with the shard's churn-drop counters), then the
// coordinator record; no build-plane events in the engine record.
//
// v4: the meta record carries the substrate's structural fingerprint
// (blueprintKey) plus the MUX discipline and transit mode, so a blob is
// refused under a different strategy, topology, member set or discipline.
const SnapshotVersion = 4

// Snapshot record types. Append-only: these appear in snapshot files.
const (
	recMeta uint16 = iota + 1
	recGroup
	recHosts
	recSources
	recControl
	recFaults
	recReopt
	recComponents
	recEngine
	recStats
	recCoord
	recEnd
	// recFabric (QueuedTransit link queues) rides between a shard's
	// recComponents and recEngine in the stream; it took the next free
	// number when added.
	recFabric
)

// Source type tags inside recSources. Append-only, same rule as records.
const (
	srcExtremal uint8 = iota + 1
	srcAudio
	srcVideo
)

// Checkpointer names the session for callers that step it to quiesce
// points (Start, RunTo, Snapshot, Finish) rather than Run it through.
type Checkpointer = *Session

// NewCheckpointer is NewSession under the name those callers use.
func NewCheckpointer(cfg Config) Checkpointer { return NewSession(cfg) }

// snapMeta is the decoded recMeta sanity block: enough of the
// configuration to reject a snapshot restored under the wrong Config, plus
// the checkpoint instant.
type snapMeta struct {
	at          des.Time
	duration    des.Duration
	seed        uint64
	trafficSeed uint64
	shards      int
	numHosts    int
	numGroups   int
	scheme      Scheme
	workload    Workload
	load        float64
	discipline  mux.Discipline
	transit     netsim.TransitMode
	structure   [32]byte // the substrate's blueprintKey
}

func writeMeta(w *snap.Writer, sub *substrate, at des.Time, shards, numHosts int) {
	cfg := sub.cfg
	w.Begin(recMeta)
	w.I64(int64(at))
	w.I64(int64(cfg.Duration))
	w.U64(cfg.Seed)
	w.U64(cfg.TrafficSeed.Or(cfg.Seed))
	w.U32(uint32(shards))
	w.U32(uint32(numHosts))
	w.U32(uint32(sub.numGroups()))
	w.U8(uint8(cfg.Scheme))
	w.U8(uint8(cfg.Workload))
	w.F64(cfg.Load)
	w.U8(uint8(cfg.Discipline))
	w.U8(uint8(cfg.Transit))
	w.Bytes(sub.key[:])
	w.End()
}

func readMeta(r *snap.Reader) snapMeta {
	m := snapMeta{
		at:          des.Time(r.I64()),
		duration:    des.Duration(r.I64()),
		seed:        r.U64(),
		trafficSeed: r.U64(),
		shards:      int(r.U32()),
		numHosts:    int(r.U32()),
		numGroups:   int(r.U32()),
		scheme:      Scheme(r.U8()),
		workload:    Workload(r.U8()),
		load:        r.F64(),
		discipline:  mux.Discipline(r.U8()),
		transit:     netsim.TransitMode(r.U8()),
	}
	copy(m.structure[:], r.Bytes())
	return m
}

// checkMeta validates a decoded meta block against the compiled substrate.
func checkMeta(m snapMeta, sub *substrate) error {
	cfg := sub.cfg
	switch {
	case m.numHosts != cfg.NumHosts,
		m.numGroups != sub.numGroups(),
		m.duration != cfg.Duration,
		m.seed != cfg.Seed,
		m.trafficSeed != cfg.TrafficSeed.Or(cfg.Seed),
		m.scheme != cfg.Scheme,
		m.workload != cfg.Workload,
		m.load != cfg.Load,
		m.discipline != cfg.Discipline,
		m.transit != cfg.Transit,
		m.structure != sub.key:
		return fmt.Errorf("core: snapshot was taken from a different configuration")
	}
	return nil
}

// expect consumes the next record header and checks its type.
func expect(r *snap.Reader, want uint16) error {
	typ, ok := r.Next()
	if !ok {
		if err := r.Err(); err != nil {
			return err
		}
		return fmt.Errorf("core: snapshot truncated before record %d", want)
	}
	if typ != want {
		return fmt.Errorf("core: snapshot record %d where %d expected", typ, want)
	}
	return nil
}

// --- Session-wide mutable state ---

func writeGroup(w *snap.Writer, st *groupState) {
	w.Begin(recGroup)
	st.tree.Snapshot(w)
	w.U64(st.lost)
	w.Len(len(st.detached))
	for _, d := range st.detached {
		w.I64(int64(d))
	}
	w.End()
}

func readGroup(r *snap.Reader, st *groupState) error {
	st.tree = overlay.RestoreTree(r)
	for i := range st.member {
		st.member[i] = false
	}
	for _, m := range st.tree.Members {
		if m < 0 || m >= len(st.member) {
			return fmt.Errorf("core: snapshot tree member %d out of range", m)
		}
		st.member[m] = true
	}
	st.lost = r.U64()
	n := r.Len()
	st.detached = nil
	for i := 0; i < n; i++ {
		st.detached = append(st.detached, int(r.I64()))
	}
	return nil
}

func writeHosts(w *snap.Writer, hosts []*host) {
	w.Begin(recHosts)
	w.Len(len(hosts))
	for _, h := range hosts {
		w.U8(uint8(h.mode))
		w.Bool(h.modeSet)
		w.U32(uint32(h.switches))
		w.Bool(h.srlCycling)
		// Bank allocated-ness is state in its own right, distinct from the
		// entries: attachGroup only fills group slots of an already
		// allocated bank (a host whose children were all pruned keeps its
		// empty bank), so a restored host must present the same shape or a
		// post-restore join would silently skip regulator creation.
		w.Bool(h.srBank != nil)
		w.Bool(h.srlBank != nil)
		// Adaptive controller: a running controller's window estimator is
		// mutable runtime state; its pending tick rides as a KindCtlTick
		// event in the engine record.
		w.Bool(h.rate != nil)
		if h.rate != nil {
			h.rate.Snapshot(w)
		}
	}
	w.End()
}

func readHosts(r *snap.Reader, hosts []*host) error {
	if n := r.Len(); n != len(hosts) {
		return fmt.Errorf("core: snapshot has %d hosts, session has %d", n, len(hosts))
	}
	for _, h := range hosts {
		h.mode = Scheme(r.U8())
		h.modeSet = r.Bool()
		h.switches = int(r.U32())
		h.srlCycling = r.Bool()
		if r.Bool() && h.srBank == nil {
			h.srBank = make([]*regulator.SigmaRho, len(h.env.specs))
		}
		if r.Bool() && h.srlBank == nil {
			h.srlBank = make([]*regulator.SRL, len(h.env.specs))
		}
		if r.Bool() {
			// Re-arm the controller closure without scheduling its tick (the
			// pending tick replays from the engine record), then overwrite
			// the fresh window with the serialized one.
			h.prepareController(ctlWindow, ctlInterval, h.env.threshold)
			h.rate.Restore(r)
		}
	}
	return nil
}

func writeSources(w *snap.Writer, sources []traffic.Source) error {
	w.Begin(recSources)
	w.Len(len(sources))
	for g, src := range sources {
		switch s := src.(type) {
		case *traffic.Extremal:
			nextID, start := s.SnapState()
			w.U8(srcExtremal)
			w.U64(nextID)
			w.I64(int64(start))
		case *traffic.Audio:
			st := s.SnapState()
			w.U8(srcAudio)
			w.U64(st.NextID)
			w.I64(int64(st.TalkEnd))
			w.U64(st.RNG)
		case *traffic.Video:
			st := s.SnapState()
			w.U8(srcVideo)
			w.U64(st.NextID)
			w.I64(int64(st.Frame))
			w.Bool(st.ScenePending)
			w.U64(st.RNG)
		default:
			return fmt.Errorf("core: group %d source %T cannot be snapshotted", g, src)
		}
	}
	w.End()
	return nil
}

// srcState is one decoded source record awaiting resume; tag selects which
// of the per-type fields are meaningful.
type srcState struct {
	tag    uint8
	nextID uint64
	start  des.Time // extremal cycle start
	audio  traffic.AudioState
	video  traffic.VideoState
}

func readSources(r *snap.Reader, numGroups int) ([]srcState, error) {
	if n := r.Len(); n != numGroups {
		return nil, fmt.Errorf("core: snapshot has %d sources, session has %d groups", n, numGroups)
	}
	sts := make([]srcState, numGroups)
	for g := range sts {
		st := &sts[g]
		st.tag = r.U8()
		switch st.tag {
		case srcExtremal:
			st.nextID = r.U64()
			st.start = des.Time(r.I64())
		case srcAudio:
			st.audio.NextID = r.U64()
			st.audio.TalkEnd = des.Time(r.I64())
			st.audio.RNG = r.U64()
		case srcVideo:
			st.video.NextID = r.U64()
			st.video.Frame = int(r.I64())
			st.video.ScenePending = r.Bool()
			st.video.RNG = r.U64()
		default:
			if err := r.Err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("core: snapshot source %d has unknown type tag %d", g, st.tag)
		}
	}
	return sts, nil
}

// resumeSource re-binds one rebuilt source to its engine and serialized
// stream position. The source's pending events replay separately.
func resumeSource(g int, src traffic.Source, st srcState, eng *des.Engine, until des.Time, emit func(traffic.Packet)) error {
	switch s := src.(type) {
	case *traffic.Extremal:
		if st.tag != srcExtremal {
			return fmt.Errorf("core: snapshot source %d has tag %d, session built an extremal source", g, st.tag)
		}
		s.Resume(eng, until, emit, st.nextID, st.start)
	case *traffic.Audio:
		if st.tag != srcAudio {
			return fmt.Errorf("core: snapshot source %d has tag %d, session built an audio source", g, st.tag)
		}
		s.Resume(eng, until, emit, st.audio)
	case *traffic.Video:
		if st.tag != srcVideo {
			return fmt.Errorf("core: snapshot source %d has tag %d, session built a video source", g, st.tag)
		}
		s.Resume(eng, until, emit, st.video)
	default:
		return fmt.Errorf("core: group %d source %T cannot be restored", g, src)
	}
	return nil
}

func (cp *controlPlane) snapshot(w *snap.Writer) {
	w.Begin(recControl)
	w.U32(uint32(cp.joins))
	w.U32(uint32(cp.leaves))
	w.U32(uint32(cp.regrafts))
	w.U32(uint32(cp.rejected))
	w.End()
}

func (cp *controlPlane) restoreState(r *snap.Reader) {
	cp.joins = int(r.U32())
	cp.leaves = int(r.U32())
	cp.regrafts = int(r.U32())
	cp.rejected = int(r.U32())
}

// snapshot serializes the fault plane's mutable state. The events, their
// kinds/times, and the sentinel bookkeeping arrays' shapes are rebuilt by
// newFaultPlane from the Config; this covers what execution changed.
func (fp *faultPlane) snapshot(w *snap.Writer) {
	w.Begin(recFaults)
	// Outage bitmap, as ascending indices.
	nd := 0
	for _, d := range fp.down {
		if d {
			nd++
		}
	}
	w.Len(nd)
	for h, d := range fp.down {
		if d {
			w.U32(uint32(h))
		}
	}
	// Recorded memberships awaiting restore, by ascending outage ID.
	ids := make([]int, 0, len(fp.restoreSets))
	for id := range fp.restoreSets {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ { // insertion sort: tiny set
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	w.Len(len(ids))
	for _, id := range ids {
		w.I64(int64(id))
		mem := fp.restoreSets[id]
		w.Len(len(mem))
		for _, hosts := range mem {
			w.Len(len(hosts))
			for _, h := range hosts {
				w.U32(uint32(h))
			}
		}
	}
	// Active partition cut.
	w.Bool(fp.cutOn)
	if fp.cutOn {
		w.U32(uint32(fp.cutIdx))
		nc := 0
		for _, c := range fp.cutHost {
			if c {
				nc++
			}
		}
		w.Len(nc)
		for h, c := range fp.cutHost {
			if c {
				w.U32(uint32(h))
			}
		}
	}
	// Outcomes accumulated so far (Kind/AtSec/Group are rebuilt).
	w.Len(len(fp.outcomes))
	for i := range fp.outcomes {
		oc := &fp.outcomes[i]
		w.U32(uint32(oc.Hosts))
		w.U32(uint32(oc.Regrafts))
		w.U64(oc.Lost)
		w.F64(oc.RecoverySec)
		w.U32(uint32(oc.Unrecovered))
	}
	// Recovery sentinels: per-event tracked pair lists, then the live
	// tracker cells (trackIdx/firstAt) sparsely.
	w.Len(len(fp.tracked))
	for _, pairs := range fp.tracked {
		w.Len(len(pairs))
		for _, tr := range pairs {
			w.U32(uint32(tr.g))
			w.U32(uint32(tr.h))
		}
	}
	nt := 0
	for g := range fp.trackIdx {
		for h := range fp.trackIdx[g] {
			if fp.trackIdx[g][h] >= 0 {
				nt++
			}
		}
	}
	w.Len(nt)
	for g := range fp.trackIdx {
		for h := range fp.trackIdx[g] {
			if fp.trackIdx[g][h] >= 0 {
				w.U32(uint32(g))
				w.U32(uint32(h))
				w.I64(int64(fp.trackIdx[g][h]))
				w.I64(int64(fp.firstAt[g][h]))
			}
		}
	}
	w.End()
}

func (fp *faultPlane) restoreState(r *snap.Reader) error {
	for i := range fp.down {
		fp.down[i] = false
	}
	nd := r.Len()
	for i := 0; i < nd; i++ {
		h := int(r.U32())
		if h < 0 || h >= len(fp.down) {
			return fmt.Errorf("core: snapshot down host %d out of range", h)
		}
		fp.down[h] = true
	}
	ni := r.Len()
	for i := 0; i < ni; i++ {
		id := int(r.I64())
		ng := r.Len()
		mem := make([][]int, ng)
		for g := 0; g < ng; g++ {
			nh := r.Len()
			for j := 0; j < nh; j++ {
				mem[g] = append(mem[g], int(r.U32()))
			}
		}
		fp.restoreSets[id] = mem
	}
	fp.cutOn = r.Bool()
	fp.cutHost = nil
	if fp.cutOn {
		fp.cutIdx = int(r.U32())
		fp.cutHost = make([]bool, len(fp.hosts))
		nc := r.Len()
		for i := 0; i < nc; i++ {
			h := int(r.U32())
			if h < 0 || h >= len(fp.cutHost) {
				return fmt.Errorf("core: snapshot cut host %d out of range", h)
			}
			fp.cutHost[h] = true
		}
	}
	if n := r.Len(); n != len(fp.outcomes) {
		return fmt.Errorf("core: snapshot has %d fault outcomes, session has %d", n, len(fp.outcomes))
	}
	for i := range fp.outcomes {
		oc := &fp.outcomes[i]
		oc.Hosts = int(r.U32())
		oc.Regrafts = int(r.U32())
		oc.Lost = r.U64()
		oc.RecoverySec = r.F64()
		oc.Unrecovered = int(r.U32())
	}
	if n := r.Len(); n != len(fp.tracked) {
		return fmt.Errorf("core: snapshot has %d tracked lists, session has %d", n, len(fp.tracked))
	}
	for i := range fp.tracked {
		np := r.Len()
		fp.tracked[i] = nil
		for j := 0; j < np; j++ {
			fp.tracked[i] = append(fp.tracked[i], faultTrack{g: int(r.U32()), h: int(r.U32())})
		}
	}
	nt := r.Len()
	for i := 0; i < nt; i++ {
		g, h := int(r.U32()), int(r.U32())
		if g < 0 || g >= len(fp.trackIdx) || h < 0 || h >= len(fp.trackIdx[g]) {
			return fmt.Errorf("core: snapshot tracker cell (%d,%d) out of range", g, h)
		}
		fp.trackIdx[g][h] = int32(r.I64())
		fp.firstAt[g][h] = des.Time(r.I64())
	}
	return nil
}

// snapshot serializes the re-optimization plane's mutable state (the
// estimate cells sparsely — only cells with observations).
func (ro *reoptPlane) snapshot(w *snap.Writer) {
	w.Begin(recReopt)
	ne := 0
	for g := range ro.est {
		for h := range ro.est[g] {
			if ro.est[g][h].n > 0 {
				ne++
			}
		}
	}
	w.Len(ne)
	for g := range ro.est {
		for h := range ro.est[g] {
			if e := &ro.est[g][h]; e.n > 0 {
				w.U32(uint32(g))
				w.U32(uint32(h))
				w.F64(e.sum)
				w.U64(e.n)
			}
		}
	}
	for g := range ro.cooldown {
		w.I64(int64(ro.cooldown[g]))
		w.U32(uint32(ro.rebuilds[g]))
	}
	w.U32(uint32(ro.accepted))
	w.U32(uint32(ro.moves))
	w.U32(uint32(ro.rejected))
	w.End()
}

func (ro *reoptPlane) restoreState(r *snap.Reader) error {
	for g := range ro.est {
		for h := range ro.est[g] {
			ro.est[g][h] = delayEst{}
		}
	}
	ne := r.Len()
	for i := 0; i < ne; i++ {
		g, h := int(r.U32()), int(r.U32())
		if g < 0 || g >= len(ro.est) || h < 0 || h >= len(ro.est[g]) {
			return fmt.Errorf("core: snapshot estimate cell (%d,%d) out of range", g, h)
		}
		ro.est[g][h] = delayEst{sum: r.F64(), n: r.U64()}
	}
	for g := range ro.cooldown {
		ro.cooldown[g] = des.Time(r.I64())
		ro.rebuilds[g] = int(r.U32())
	}
	ro.accepted = int(r.U32())
	ro.moves = int(r.U32())
	ro.rejected = int(r.U32())
	return nil
}

// --- Per-engine component slot tables and pending events ---

// writeComponents serializes one engine's component registry: every
// component that is live (installed in its host) or referenced by a
// pending event of that engine. Dead unreferenced components (detached
// regulators whose events were cancelled, dropped MUXes that drained) are
// garbage and skipped; a dead-but-referenced component — a dropped MUX
// still draining its queue, a detached SRL mid-transmission — serializes
// with live=false so the replayed event finds it without re-installing it.
func writeComponents(w *snap.Writer, env *hostEnv, hosts []*host, evs []des.PendingEvent) {
	muxRef := make(map[uint32]bool)
	srRef := make(map[uint32]bool)
	srlRef := make(map[uint32]bool)
	for _, ev := range evs {
		switch ev.Kind {
		case des.KindMuxDone:
			muxRef[ev.Arg] = true
		case des.KindSRRetry:
			srRef[ev.Arg] = true
		case des.KindSRLDone, des.KindSRLOn, des.KindSRLOff:
			srlRef[ev.Arg] = true
		}
	}
	w.Begin(recComponents)

	type sel struct {
		slot int
		live bool
	}
	var ms []sel
	for slot, m := range env.muxReg {
		id := env.muxIdent[slot]
		live := hosts[id.host].muxAt(int(id.sub)) == m
		if live || muxRef[uint32(slot)] {
			ms = append(ms, sel{slot, live})
		}
	}
	w.Len(len(ms))
	for _, e := range ms {
		id := env.muxIdent[e.slot]
		m := env.muxReg[e.slot]
		w.U32(uint32(e.slot))
		w.U32(uint32(id.host))
		w.U32(uint32(id.sub))
		w.Bool(e.live)
		// Capacity is creation-time state (capacity-aware connections split
		// the uplink by the connection count at creation), so it rides along.
		w.F64(m.Capacity())
		m.Snapshot(w)
	}

	var ss []sel
	for slot, s := range env.srReg {
		id := env.srIdent[slot]
		h := hosts[id.host]
		live := h.srBank != nil && h.srBank[id.sub] == s
		if live || srRef[uint32(slot)] {
			ss = append(ss, sel{slot, live})
		}
	}
	w.Len(len(ss))
	for _, e := range ss {
		id := env.srIdent[e.slot]
		w.U32(uint32(e.slot))
		w.U32(uint32(id.host))
		w.U32(uint32(id.sub))
		w.Bool(e.live)
		env.srReg[e.slot].Snapshot(w)
	}

	var ls []sel
	for slot, sr := range env.srlReg {
		id := env.srlIdent[slot]
		h := hosts[id.host]
		live := h.srlBank != nil && h.srlBank[id.sub] == sr
		if live || srlRef[uint32(slot)] {
			ls = append(ls, sel{slot, live})
		}
	}
	w.Len(len(ls))
	for _, e := range ls {
		id := env.srlIdent[e.slot]
		w.U32(uint32(e.slot))
		w.U32(uint32(id.host))
		w.U32(uint32(id.sub))
		w.Bool(e.live)
		env.srlReg[e.slot].Snapshot(w)
	}
	w.End()
}

// compMaps routes a serialized event's old component slot to the restored
// component during replay.
type compMaps struct {
	mux map[uint32]*mux.Mux
	sr  map[uint32]*regulator.SigmaRho
	srl map[uint32]*regulator.SRL
}

// readComponents rebuilds one engine's serialized components through the
// host restore factories (which re-register them, assigning fresh slots)
// and installs the live ones.
func readComponents(r *snap.Reader, hosts []*host, numGroups int) (compMaps, error) {
	cm := compMaps{
		mux: make(map[uint32]*mux.Mux),
		sr:  make(map[uint32]*regulator.SigmaRho),
		srl: make(map[uint32]*regulator.SRL),
	}
	nm := r.Len()
	for i := 0; i < nm; i++ {
		slot := r.U32()
		hid, child := int(r.U32()), int(r.U32())
		live := r.Bool()
		capacity := r.F64()
		if hid < 0 || hid >= len(hosts) || child < 0 || child >= len(hosts) {
			return cm, fmt.Errorf("core: snapshot mux ident (%d,%d) out of range", hid, child)
		}
		h := hosts[hid]
		m := h.restoreMux(child, capacity)
		m.Restore(r)
		if live {
			h.installMux(child, m)
		}
		cm.mux[slot] = m
	}
	ns := r.Len()
	for i := 0; i < ns; i++ {
		slot := r.U32()
		hid, g := int(r.U32()), int(r.U32())
		live := r.Bool()
		if hid < 0 || hid >= len(hosts) || g < 0 || g >= numGroups {
			return cm, fmt.Errorf("core: snapshot regulator ident (%d,%d) out of range", hid, g)
		}
		h := hosts[hid]
		s := h.restoreSR(g)
		s.Restore(r)
		if live {
			h.installSR(g, s)
		}
		cm.sr[slot] = s
	}
	nl := r.Len()
	for i := 0; i < nl; i++ {
		slot := r.U32()
		hid, g := int(r.U32()), int(r.U32())
		live := r.Bool()
		if hid < 0 || hid >= len(hosts) || g < 0 || g >= numGroups {
			return cm, fmt.Errorf("core: snapshot regulator ident (%d,%d) out of range", hid, g)
		}
		h := hosts[hid]
		sr := h.restoreSRL(g)
		sr.Restore(r)
		if live {
			h.installSRL(g, sr)
		}
		cm.srl[slot] = sr
	}
	return cm, nil
}

// replayEv is one decoded runtime event awaiting replay.
type replayEv struct {
	at, prio des.Time
	kind     uint16
	arg      uint32
	via      int            // KindHopFlight payload: next router, or -1 for an access leg
	dst      int            // KindFlight / KindHopFlight payload
	pkt      traffic.Packet // KindFlight / KindHopFlight payload
}

// writeEvents serializes one engine's pending events in seq order.
// KindFlight and KindHopFlight events carry their in-flight delivery
// inline, because the flight-pool node index in arg is meaningless across
// processes.
func writeEvents(w *snap.Writer, evs []des.PendingEvent, fabric *netsim.Fabric) {
	w.Begin(recEngine)
	w.Len(len(evs))
	for _, ev := range evs {
		w.I64(int64(ev.At))
		w.I64(int64(ev.Prio))
		w.U16(ev.Kind)
		w.U32(ev.Arg)
		switch ev.Kind {
		case des.KindFlight:
			dst, p := fabric.PendingFlight(ev.Arg)
			w.U32(uint32(dst))
			p.Snapshot(w)
		case des.KindHopFlight:
			via, dst, p := fabric.PendingHop(ev.Arg)
			w.I64(int64(via))
			w.U32(uint32(dst))
			p.Snapshot(w)
		}
	}
	w.End()
}

func readEvents(r *snap.Reader) []replayEv {
	n := r.Len()
	evs := make([]replayEv, 0, n)
	for i := 0; i < n; i++ {
		if r.Err() != nil {
			break
		}
		ev := replayEv{
			at:   des.Time(r.I64()),
			prio: des.Time(r.I64()),
			kind: r.U16(),
			arg:  r.U32(),
		}
		switch ev.kind {
		case des.KindFlight:
			ev.dst = int(r.U32())
			ev.pkt = traffic.RestorePacket(r)
		case des.KindHopFlight:
			ev.via = int(r.I64())
			ev.dst = int(r.U32())
			ev.pkt = traffic.RestorePacket(r)
		}
		evs = append(evs, ev)
	}
	return evs
}

// replayEvents re-schedules one engine's serialized events in original
// order, after the engine's clock has been restored. Fresh ascending
// sequence numbers preserve the original relative firing order.
func replayEvents(evs []replayEv, cm compMaps, fabric *netsim.Fabric, sources []traffic.Source, hosts []*host) error {
	for _, ev := range evs {
		switch ev.kind {
		case des.KindMuxDone:
			m := cm.mux[ev.arg]
			if m == nil {
				return fmt.Errorf("core: snapshot event names unknown mux slot %d", ev.arg)
			}
			m.RestoreDone(ev.at, ev.prio)
		case des.KindSRRetry:
			s := cm.sr[ev.arg]
			if s == nil {
				return fmt.Errorf("core: snapshot event names unknown regulator slot %d", ev.arg)
			}
			s.RestoreRetry(ev.at, ev.prio)
		case des.KindSRLDone, des.KindSRLOn, des.KindSRLOff:
			sr := cm.srl[ev.arg]
			if sr == nil {
				return fmt.Errorf("core: snapshot event names unknown regulator slot %d", ev.arg)
			}
			switch ev.kind {
			case des.KindSRLDone:
				sr.RestoreDone(ev.at, ev.prio)
			case des.KindSRLOn:
				sr.RestoreOn(ev.at, ev.prio)
			default:
				sr.RestoreOff(ev.at, ev.prio)
			}
		case des.KindFlight:
			fabric.RestoreFlight(ev.at, ev.prio, ev.dst, ev.pkt)
		case des.KindHopFlight:
			fabric.RestoreHop(ev.at, ev.prio, ev.via, ev.dst, ev.pkt)
		case des.KindLinkDone:
			if err := fabric.RestoreLinkDone(ev.arg, ev.at, ev.prio); err != nil {
				return err
			}
		case des.KindSrcCycle, des.KindSrcTick:
			if int(ev.arg) >= len(sources) {
				return fmt.Errorf("core: snapshot event names unknown source %d", ev.arg)
			}
			ex, ok := sources[ev.arg].(*traffic.Extremal)
			if !ok {
				return fmt.Errorf("core: snapshot event kind %d names a %T source", ev.kind, sources[ev.arg])
			}
			if ev.kind == des.KindSrcCycle {
				ex.RestoreCycle(ev.at, ev.prio)
			} else {
				ex.RestoreTick(ev.at, ev.prio)
			}
		case des.KindAudioTalk, des.KindAudioWake:
			if int(ev.arg) >= len(sources) {
				return fmt.Errorf("core: snapshot event names unknown source %d", ev.arg)
			}
			a, ok := sources[ev.arg].(*traffic.Audio)
			if !ok {
				return fmt.Errorf("core: snapshot event kind %d names a %T source", ev.kind, sources[ev.arg])
			}
			if ev.kind == des.KindAudioTalk {
				a.RestoreTalk(ev.at, ev.prio)
			} else {
				a.RestoreWake(ev.at, ev.prio)
			}
		case des.KindVideoTick:
			if int(ev.arg) >= len(sources) {
				return fmt.Errorf("core: snapshot event names unknown source %d", ev.arg)
			}
			v, ok := sources[ev.arg].(*traffic.Video)
			if !ok {
				return fmt.Errorf("core: snapshot event kind %d names a %T source", ev.kind, sources[ev.arg])
			}
			v.RestoreTick(ev.at, ev.prio)
		case des.KindCtlTick:
			if int(ev.arg) >= len(hosts) {
				return fmt.Errorf("core: snapshot event names unknown host %d", ev.arg)
			}
			h := hosts[ev.arg]
			if h.ctlFn == nil {
				return fmt.Errorf("core: snapshot controller tick for host %d, but its controller was not restored", ev.arg)
			}
			h.restoreCtlTick(ev.at, ev.prio)
		default:
			return fmt.Errorf("core: snapshot event has unknown kind %d", ev.kind)
		}
	}
	return nil
}

// --- The session ---

// writeStats serializes one shard's measurement accumulators.
func (sh *shardRuntime) writeStats(w *snap.Writer) {
	w.Begin(recStats)
	for g := range sh.perGroup {
		sh.perGroup[g].Snapshot(w)
	}
	sh.delays.Snapshot(w)
	w.U64(sh.deliver)
	for _, n := range sh.lost {
		w.U64(n)
	}
	w.Bool(sh.windows != nil)
	if sh.windows != nil {
		sh.windows.Snapshot(w)
	}
	w.Len(len(sh.faultCut))
	for _, n := range sh.faultCut {
		w.U64(n)
	}
	w.End()
}

func (sh *shardRuntime) readStats(r *snap.Reader) error {
	for g := range sh.perGroup {
		sh.perGroup[g].Restore(r)
	}
	sh.delays.Restore(r)
	sh.deliver = r.U64()
	for g := range sh.lost {
		sh.lost[g] = r.U64()
	}
	if r.Bool() {
		if sh.windows == nil {
			return fmt.Errorf("core: snapshot has a window series, session has none")
		}
		if err := sh.windows.Restore(r); err != nil {
			return err
		}
	} else if sh.windows != nil {
		return fmt.Errorf("core: snapshot has no window series, session expects one")
	}
	if n := r.Len(); n != len(sh.faultCut) {
		return fmt.Errorf("core: snapshot has %d cut counters, shard has %d", n, len(sh.faultCut))
	}
	for i := range sh.faultCut {
		sh.faultCut[i] = r.U64()
	}
	return nil
}

// Snapshot serializes the session at the current quiesce point (between
// RunTo calls: every engine parked at the same instant). Valid only after
// Start.
func (s *Session) Snapshot() ([]byte, error) {
	if !s.started {
		return nil, fmt.Errorf("core: snapshot before Start")
	}
	at := s.sh[0].eng.Now()
	for _, sh := range s.sh {
		if sh.eng.Now() != at {
			return nil, fmt.Errorf("core: snapshot requires a quiesced coordinator (engines at different times)")
		}
	}
	// Fold every mailbox into the sorted pending buffers so the snapshot
	// sees all undelivered cross-shard records in one place.
	s.coord.CheckpointDrain()
	w := snap.NewWriterSize(SnapshotVersion, s.snapSize)
	writeMeta(w, s.sub, at, len(s.sh), len(s.hosts))
	for _, st := range s.sub.groups {
		writeGroup(w, st)
	}
	writeHosts(w, s.hosts)
	if err := writeSources(w, s.sources); err != nil {
		return nil, err
	}
	if s.ctl != nil {
		s.ctl.snapshot(w)
	}
	if s.fp != nil {
		s.fp.snapshot(w)
	}
	if s.ro != nil {
		s.ro.snapshot(w)
	}
	for _, sh := range s.sh {
		evs, err := sh.eng.PendingEvents()
		if err != nil {
			return nil, err
		}
		writeComponents(w, sh.env, s.hosts, evs)
		if s.sub.cfg.Transit == netsim.QueuedTransit {
			w.Begin(recFabric)
			sh.fabric.SnapshotLinks(w)
			w.End()
		}
		writeEvents(w, evs, sh.fabric)
		sh.writeStats(w)
	}
	w.Begin(recCoord)
	seqs := s.coord.SrcSeqs()
	w.Len(len(seqs))
	for _, q := range seqs {
		w.U64(q)
	}
	epochs, messages, stallNum, stallDen := s.coord.Diagnostics()
	w.U64(epochs)
	w.U64(messages)
	w.U64(stallNum)
	w.U64(stallDen)
	for dst := range s.sh {
		recs := s.coord.PendingRecords(dst)
		w.Len(len(recs))
		for _, rc := range recs {
			w.I64(int64(rc.At))
			w.I64(int64(rc.Lamport))
			w.U64(rc.Seq)
			w.I64(int64(rc.Src))
			w.U32(uint32(rc.Payload.host))
			rc.Payload.p.Snapshot(w)
		}
	}
	w.End()
	w.Begin(recEnd)
	w.End()
	blob, err := w.Finish()
	if err == nil {
		s.snapSize = len(blob)
	}
	return blob, err
}

func (s *Session) restore(r *snap.Reader, meta snapMeta) error {
	cfg := s.sub.cfg
	numGroups := s.sub.numGroups()
	for g := 0; g < numGroups; g++ {
		if err := expect(r, recGroup); err != nil {
			return err
		}
		if err := readGroup(r, s.sub.groups[g]); err != nil {
			return err
		}
	}
	// Forwarding fan-out derives from the restored trees, exactly as the
	// live session derives it from mutations: a host's children are its
	// child sets in the current trees.
	chl := s.sub.compileChildren()
	for id, h := range s.hosts {
		h.children = chl[id]
	}
	if err := expect(r, recHosts); err != nil {
		return err
	}
	if err := readHosts(r, s.hosts); err != nil {
		return err
	}
	if err := expect(r, recSources); err != nil {
		return err
	}
	srcSts, err := readSources(r, numGroups)
	if err != nil {
		return err
	}
	if s.ctl != nil {
		if err := expect(r, recControl); err != nil {
			return err
		}
		s.ctl.restoreState(r)
	}
	if s.fp != nil {
		if err := expect(r, recFaults); err != nil {
			return err
		}
		if err := s.fp.restoreState(r); err != nil {
			return err
		}
	}
	if s.ro != nil {
		if err := expect(r, recReopt); err != nil {
			return err
		}
		if err := s.ro.restoreState(r); err != nil {
			return err
		}
	}
	cms := make([]compMaps, len(s.sh))
	evss := make([][]replayEv, len(s.sh))
	for si, sh := range s.sh {
		if err := expect(r, recComponents); err != nil {
			return err
		}
		if cms[si], err = readComponents(r, s.hosts, numGroups); err != nil {
			return err
		}
		if cfg.Transit == netsim.QueuedTransit {
			if err := expect(r, recFabric); err != nil {
				return err
			}
			if err := sh.fabric.RestoreLinks(r); err != nil {
				return err
			}
		}
		if err := expect(r, recEngine); err != nil {
			return err
		}
		evss[si] = readEvents(r)
		if err := expect(r, recStats); err != nil {
			return err
		}
		if err := sh.readStats(r); err != nil {
			return err
		}
	}
	if err := expect(r, recCoord); err != nil {
		return err
	}
	if n := r.Len(); n != len(s.sh) {
		return fmt.Errorf("core: snapshot has %d source-seq counters, session has %d shards", n, len(s.sh))
	}
	seqs := make([]uint64, len(s.sh))
	for i := range seqs {
		seqs[i] = r.U64()
	}
	s.coord.RestoreSrcSeqs(seqs)
	epochs, messages, stallNum, stallDen := r.U64(), r.U64(), r.U64(), r.U64()
	s.coord.RestoreDiagnostics(epochs, messages, stallNum, stallDen)
	for dst := range s.sh {
		n := r.Len()
		recs := make([]des.ShardRec[shardPacket], 0, n)
		for i := 0; i < n; i++ {
			if r.Err() != nil {
				break
			}
			rc := des.ShardRec[shardPacket]{
				At:      des.Time(r.I64()),
				Lamport: des.Time(r.I64()),
				Seq:     r.U64(),
				Src:     int32(r.I64()),
			}
			rc.Payload.host = int(r.U32())
			rc.Payload.p = traffic.RestorePacket(r)
			recs = append(recs, rc)
		}
		s.coord.RestorePending(dst, recs)
	}
	if err := expect(r, recEnd); err != nil {
		return err
	}
	if err := r.Err(); err != nil {
		return err
	}
	// Sources resume at their serialized stream positions; their pending
	// emission events arrive through the replay below.
	s.sources = s.buildSources()
	for g, src := range s.sources {
		root := s.sub.groups[g].tree.Source
		if err := resumeSource(g, src, srcSts[g], s.rootEngine(g), cfg.Duration, s.emitFn(g, root)); err != nil {
			return err
		}
	}
	s.started = true
	for si, sh := range s.sh {
		sh.eng.RestoreNow(meta.at)
		if err := replayEvents(evss[si], cms[si], sh.fabric, s.sources, s.hosts); err != nil {
			return err
		}
	}
	return nil
}

// Restore rebuilds a session from cfg and a snapshot taken by Snapshot
// under the same cfg, positioned at the checkpoint instant and ready to
// continue with RunTo/Finish — bit-identically to the original run.
func Restore(cfg Config, data []byte) (*Session, error) {
	r, version, err := snap.NewReader(data)
	if err != nil {
		return nil, err
	}
	if version != SnapshotVersion {
		return nil, fmt.Errorf("core: snapshot version %d, want %d", version, SnapshotVersion)
	}
	if err := expect(r, recMeta); err != nil {
		return nil, err
	}
	meta := readMeta(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	sub := compileSubstrate(cfg)
	if err := checkMeta(meta, sub); err != nil {
		return nil, err
	}
	s := newSessionFrom(sub, &resumeState{at: meta.at})
	if meta.shards != len(s.sh) {
		return nil, fmt.Errorf("core: snapshot has %d shards, session has %d", meta.shards, len(s.sh))
	}
	if err := s.restore(r, meta); err != nil {
		return nil, err
	}
	return s, nil
}
