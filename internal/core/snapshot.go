package core

// Checkpoint/restore for whole sessions: a versioned flat binary snapshot
// (internal/snap) captures the full mutable runtime of a quiesced session —
// pending engine events, component queues and counters, per-group trees and
// membership, plane state, measurement accumulators, source positions, and
// the coordinator's mailboxes — while everything derivable from the Config
// is recomputed, not serialized: the restored session reconstructs the
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
//   - Kind registry: an engine event is data — a des.Kind* and an arg
//     naming its owner's slot in the engine's owner table for the kind (a
//     component's registry slot, a flow, a host). The restored session
//     registers every owner again as it reconstructs: sources and hosts at
//     their flow and id, components in the order their stanzas come, so a
//     component's arg is the rank of its serialized slot. Control-plane,
//     fault, and reopt actions are never engine events: they are
//     coordinator barriers, read from the Config's schedule, which is
//     never serialized; the restore seeks its cursors past T.
//   - Re-insert order: serialized events go back into their engine
//     (des.Engine.Reinsert) in original sequence order with their original
//     (at, prio) stamps. Fresh ascending sequence numbers preserve every
//     relative (at, prio, seq) comparison, so the restored firing order is
//     the original's.
//
// The stream's layout is the records table, which Snapshot and Restore both
// walk; every MUX, regulator and duty-cycle clock is a component (host.go)
// with one stanza layout; every pending event is one Reinsert. Restore
// reads bytes it may not have written: every id is range-checked before it
// indexes anything, an event whose arg names no owner is refused by the
// engine, and a failure is an error, never a panic. The engine refuses to
// snapshot a pending closure, which no owner table can name in another
// process.

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/des"
	"repro/internal/mux"
	"repro/internal/overlay"
	"repro/internal/regulator"
	"repro/internal/snap"
	"repro/internal/traffic"
)

// SnapshotVersion is the snapshot format version. Bump on any layout
// change; Restore rejects other versions.
const SnapshotVersion = 12

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
	// Type 13 is retired: the link queues of the hop-by-hop underlay.
	_
)

// Checkpointer names the session for callers that step it to quiesce
// points (Start, RunTo, Snapshot, Finish) rather than Run it through.
type Checkpointer = *Session

// NewCheckpointer is NewSession under the name those callers use.
func NewCheckpointer(cfg Config) Checkpointer { return NewSession(cfg) }

// --- The record table ---

// scope says how many times a record appears in one snapshot.
type scope uint8

const (
	once     scope = iota
	perGroup       // one per group, ascending
	// perShard records appear once per shard, and a run of consecutive
	// perShard rows interleaves: all of them for shard 0, then for shard 1.
	perShard
)

// record is one row of the stream layout: the record's type tag, how often
// it appears, whether this session has it at all, and its two codecs. A
// codec reports failure through the writer's or reader's Fail.
type record struct {
	tag     uint16
	scope   scope
	present func(s *Session) bool // nil: always
	write   func(c *codec, w *snap.Writer, i int)
	read    func(c *codec, r *snap.Reader, i int)
}

// records is the order and presence rule of every record, stated once.
// Session.Snapshot and Restore both iterate it (codec.walk), so the writer
// and the reader cannot disagree about the layout; DESIGN.md §11.2 is this
// table in prose. A row's writer is its only description: Snapshot sizes
// the stream by running the writers through a sizer first.
var records = []record{
	{recMeta, once, nil, (*codec).writeMeta, (*codec).readMeta},
	{recGroup, perGroup, nil, (*codec).writeGroup, (*codec).readGroup},
	{recHosts, once, nil, (*codec).writeHosts, (*codec).readHosts},
	{recSources, once, nil, (*codec).writeSources, (*codec).readSources},
	{recControl, once, func(s *Session) bool { return s.ctl != nil }, (*codec).writeControl, (*codec).readControl},
	{recFaults, once, func(s *Session) bool { return s.fp != nil }, (*codec).writeFaults, (*codec).readFaults},
	{recReopt, once, func(s *Session) bool { return s.ro != nil }, (*codec).writeReopt, (*codec).readReopt},
	{recComponents, perShard, nil, (*codec).writeComponents, (*codec).readComponents},
	{recEngine, perShard, nil, (*codec).writeEvents, (*codec).readEvents},
	{recStats, perShard, nil, (*codec).writeStats, (*codec).readStats},
	{recCoord, once, nil, (*codec).writeCoord, (*codec).readCoord},
	{recEnd, once, nil, func(*codec, *snap.Writer, int) {}, func(*codec, *snap.Reader, int) {}},
}

// codec is what one Snapshot or one Restore threads through the table.
type codec struct {
	s   *Session // Restore: nil until the meta record has been read
	cfg *Config  // Restore: the configuration to rebuild under
	at  des.Time // the checkpoint instant
	// Snapshot: what each shard's records write, and the fault plane's
	// outage ids in ascending order, gathered before the stream is sized
	// (gather); the sizer the writers run through first.
	shards  []shardSnap
	outages []int
	sizer   snap.Writer
	// Restore: one shard's state between its components record and its
	// events record. Per family the serialized slots (ascending, as
	// written) — the engine's owner tables hold no component before the
	// components record, so the i-th of them is the one it registers i-th —
	// and, in the MUX and (σ, ρ) families' sets, the MUXes a pending
	// completion and the regulators a pending token wait names.
	ref   [numFamilies]bitset
	slots [numFamilies][]uint32
	// Restore: what wiring the child plan makes per shard (countPlan); and
	// the connections of connsOf by slot (groupChildren.conns), with next
	// the slot after the one conn last took.
	per     []shardCount
	conns   []connPlan
	connsOf *forwarder
	next    int
	// Snapshot: the scratch each tree sorts its parents in.
	parents []int32
}

// conn returns the slot f's edges name for its connection to child, or -1
// when none does, and the groups routed through it — what wire counts for
// a build. It lays f's connections out once for a run of its host's MUX
// stanzas: a build makes each host's MUXes one after another in slot
// order, and a restore registers them in the order they were written, so
// the slot after the one taken last is the one it looks at first; a
// connection churn made later, in a free slot, is found by scanning on
// from there.
func (c *codec) conn(f *forwarder, child int) (slot int32, routed int) {
	if c.connsOf != f {
		c.connsOf, c.next = f, 0
		c.conns = f.children.conns(c.conns[:cap(c.conns)])
	}
	n := len(c.conns)
	for k := range n {
		i := c.next + k
		if i >= n {
			i -= n
		}
		if cp := c.conns[i]; cp.child == int32(child) && cp.routed > 0 {
			c.next = i + 1
			return int32(i), int(cp.routed)
		}
	}
	return -1, 0
}

// walk visits every record of the stream in order — (row, index within
// its scope) — stopping at the first error. Rows past the meta record are
// sized from c.s, which reading the meta record sets.
func (c *codec) walk(visit func(rec *record, i int) error) error {
	for k := 0; k < len(records); {
		end, n := k+1, 1
		switch records[k].scope {
		case perGroup:
			n = len(c.s.sub.groups)
		case perShard:
			n = len(c.s.sh)
			for end < len(records) && records[end].scope == perShard {
				end++
			}
		}
		for i := 0; i < n; i++ {
			for j := k; j < end; j++ {
				rec := &records[j]
				if rec.present != nil && !rec.present(c.s) {
					continue
				}
				if err := visit(rec, i); err != nil {
					return err
				}
			}
		}
		k = end
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
	// The writers run twice: through the sizer, then into one buffer of the
	// length the sizer added up. A writer whose two runs differ is a bug.
	c := &codec{s: s, at: at, sizer: snap.NewSizer()}
	if err := c.gather(); err != nil {
		return nil, err
	}
	if err := c.walk(func(rec *record, i int) error { return c.write(&c.sizer, rec, i) }); err != nil {
		return nil, err
	}
	size := c.sizer.Size()
	w := snap.NewWriterSize(SnapshotVersion, size)
	c.walk(func(rec *record, i int) error { return c.write(w, rec, i) })
	blob, err := w.Finish()
	if err == nil && len(blob) != size {
		return nil, fmt.Errorf("core: snapshot wrote %d bytes where its sizing pass counted %d", len(blob), size)
	}
	return blob, err
}

// write writes the i-th of rec's records through w.
func (c *codec) write(w *snap.Writer, rec *record, i int) error {
	w.Begin(rec.tag)
	rec.write(c, w, i)
	w.End()
	return w.Err()
}

// Restore reconstructs a session from cfg and a snapshot taken by Snapshot
// under the same cfg, positioned at the checkpoint instant and ready to
// continue with RunTo/Finish — bit-identically to the original run. Bytes
// Snapshot did not write yield an error.
func Restore(cfg Config, data []byte) (*Session, error) {
	r, version, err := snap.NewReader(data)
	if err != nil {
		return nil, err
	}
	if version != SnapshotVersion {
		return nil, fmt.Errorf("core: snapshot version %d, want %d", version, SnapshotVersion)
	}
	if err := cfg.checkOrder(); err != nil {
		return nil, err
	}
	c := &codec{cfg: &cfg}
	err = c.walk(func(rec *record, i int) error {
		if err := expect(r, rec.tag); err != nil {
			return err
		}
		rec.read(c, r, i)
		return r.Err()
	})
	if err != nil {
		return nil, err
	}
	if err := c.s.checkWiring(); err != nil {
		return nil, err
	}
	return c.s, nil
}

// checkWiring refuses a restored session whose forwarding state no run
// could have reached: every group a host forwards needs a regulator in its
// current mode's bank and a MUX for each child — what forward and
// replicate touch on its next packet. Each component record is well-formed
// on its own; bytes that move one to another host's stanza leave the slot
// it came from empty. (A host may hold more MUXes than children: one stays
// in service, draining, after its child leaves the host's last group with
// it.) The check is one slot test per tree edge.
func (s *Session) checkWiring() error {
	for id, h := range s.hosts {
		f := h.fwd
		if f == nil {
			continue // readHosts refused a leaf with children
		}
		for i, kids := range f.children.edges {
			if len(kids) == 0 {
				continue
			}
			ok := true
			switch f.mode {
			case SchemeSigmaRho:
				ok = i < len(f.srBank) && f.srBank[i] != nil
			case SchemeSRL:
				ok = i < len(f.srlBank) && f.srlBank[i] != nil
			}
			if !ok {
				return fmt.Errorf("core: snapshot host %d forwards group %d with no regulator in mode %v", id, f.children.groups[i], f.mode)
			}
			for _, e := range kids {
				if f.muxes[e.mux] == nil {
					return fmt.Errorf("core: snapshot host %d forwards group %d to %d with no MUX", id, f.children.groups[i], e.child)
				}
			}
		}
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

// --- Shared encodings ---

// readIndex reads a u32 id and fails the reader unless it is below n — every
// id in a snapshot indexes a per-host, per-group or per-shard table of the
// rebuilt session. All those tables are non-empty, and a failed read
// returns 0, so a decode loop can index with the result unconditionally
// and leave the error to the record's one Err check.
func readIndex(r *snap.Reader, n int, what string) int {
	v := int(r.U32())
	if r.Err() == nil && v >= n {
		r.Fail(fmt.Errorf("core: snapshot %s %d outside [0,%d)", what, v, n))
	}
	if r.Err() != nil {
		return 0
	}
	return v
}

// writeBitmap writes a set as the ascending indices of its members.
func writeBitmap(w *snap.Writer, b bitset) {
	slot, n := w.Count(), 0
	for wi, word := range b {
		for ; word != 0; word &= word - 1 {
			w.U32(uint32(wi*64 + bits.TrailingZeros64(word)))
			n++
		}
	}
	w.SetCount(slot, n)
}

// readBitmap reads what writeBitmap wrote into b, a set of [0, n).
func readBitmap(r *snap.Reader, b bitset, n int, what string) {
	clear(b)
	for k := r.Len(); k > 0; k-- {
		b.set(readIndex(r, n, what))
	}
}

// writeCells writes a groups × hosts grid sparsely: the number of live
// cells, then each one's (group, host) followed by whatever put writes for
// it, row-major.
func writeCells(w *snap.Writer, groups, hosts int, live func(g, h int) bool, put func(g, h int)) {
	slot, n := w.Count(), 0
	for g := 0; g < groups; g++ {
		for h := 0; h < hosts; h++ {
			if live(g, h) {
				w.U32(uint32(g))
				w.U32(uint32(h))
				put(g, h)
				n++
			}
		}
	}
	w.SetCount(slot, n)
}

func readCells(r *snap.Reader, groups, hosts int, what string, get func(g, h int)) {
	for n := r.Len(); n > 0; n-- {
		g := readIndex(r, groups, what)
		get(g, readIndex(r, hosts, what))
	}
}

// --- Session-wide records ---

// The meta record: the checkpoint instant and shard count, then enough of
// the configuration to refuse a snapshot restored under the wrong Config —
// which control planes run (each adds a record), and the substrate's
// blueprintKey last, which fingerprints the host count, the seed and the
// group count among the rest.
func (c *codec) writeMeta(w *snap.Writer, _ int) {
	sub := c.s.sub
	cfg := sub.cfg
	w.I64(int64(c.at))
	w.U32(uint32(len(c.s.sh)))
	w.I64(int64(cfg.Duration))
	w.U64(cfg.TrafficSeed.Or(cfg.Seed))
	w.U8(uint8(cfg.Scheme))
	w.U8(uint8(cfg.Workload))
	w.F64(cfg.Load)
	w.U8(uint8(cfg.Discipline))
	w.U8(cfg.planes())
	w.Bytes(sub.key[:])
}

// planes is one bit per control plane the configuration runs, as
// newSessionFrom decides it: churn (a membership schedule), faults (one at
// or before the end) and re-optimization.
func (c *Config) planes() uint8 {
	var on uint8
	if len(c.Events) > 0 {
		on |= 1
	}
	if len(upTo(c.Faults, c.Duration, func(ev FaultEvent) des.Time { return ev.At })) > 0 {
		on |= 2
	}
	if c.Reopt.Enabled() {
		on |= 4
	}
	return on
}

// readMeta checks the blob against the configuration field by field — the
// substrate's blueprintKey covers hosts, seed, groups, strategy, topology
// and member sets — and, only once all of it matches, builds the session
// skeleton the remaining records fill in.
func (c *codec) readMeta(r *snap.Reader, _ int) {
	sub := compile(*c.cfg, true)
	cfg := sub.cfg
	at, shards := des.Time(r.I64()), int(r.U32())
	same := true
	match := func(ok bool) { same = same && ok }
	match(des.Duration(r.I64()) == cfg.Duration)
	match(r.U64() == cfg.TrafficSeed.Or(cfg.Seed))
	match(Scheme(r.U8()) == cfg.Scheme)
	match(Workload(r.U8()) == cfg.Workload)
	match(r.F64() == cfg.Load)
	match(mux.Discipline(r.U8()) == cfg.Discipline)
	match(r.U8() == cfg.planes())
	match(bytes.Equal(r.Bytes(), sub.key[:]))
	switch {
	case r.Err() != nil:
		return
	case !same:
		r.Fail(fmt.Errorf("core: snapshot was taken from a different configuration"))
		return
	case at < 0:
		r.Fail(fmt.Errorf("core: snapshot checkpoint instant %v is negative", at))
		return
	}
	s := newSessionFrom(sub, &at)
	if shards != len(s.sh) {
		r.Fail(fmt.Errorf("core: snapshot has %d shards, session has %d", shards, len(s.sh)))
		return
	}
	for _, sh := range s.sh {
		sh.eng.RestoreNow(at)
	}
	// Sources are rebuilt from the Config like everything else; their
	// record repositions them and their pending emissions go back into the
	// engine with the other events.
	s.sources = s.buildSources()
	s.started = true
	c.s, c.at = s, at
}

// writeGroup writes whether the group's tree is the session's own — every
// tree write takes the tree through edits.tree, which clones the
// blueprint's on the group's first — and the tree only when it is, then the
// loss counter and the detached subtree roots.
func (c *codec) writeGroup(w *snap.Writer, g int) {
	sub := c.s.sub
	st := sub.groups[g]
	own := st.tree != sub.bp.trees[g]
	w.Bool(own)
	if own {
		if c.parents == nil { // one sort scratch, room for a parent per host
			c.parents = make([]int32, 0, sub.cfg.NumHosts)
		}
		c.parents = st.tree.Snapshot(w, c.parents)
	}
	w.U64(st.lost)
	w.Len(len(st.detached))
	for _, d := range st.detached {
		w.U32(uint32(d))
	}
}

// readGroup keeps the blueprint's tree, which compile handed the session,
// unless the record carries the group's own, which it decodes — and which a
// session without churn, faults or re-optimization refuses, as it refuses a
// detached subtree root: nothing in it writes a tree.
func (c *codec) readGroup(r *snap.Reader, g int) {
	s := c.s
	st := s.sub.groups[g]
	numHosts := s.sub.cfg.NumHosts
	static := s.ctl == nil && s.fp == nil && s.ro == nil
	if r.Bool() {
		if static {
			r.Fail(fmt.Errorf("core: snapshot group %d carries a tree of its own in a session without churn, faults or re-optimization", g))
		} else if tree := overlay.RestoreTree(r, numHosts); r.Err() == nil {
			st.tree = tree
		}
	}
	if r.Err() != nil {
		return // a partial tree's ids have not all been checked
	}
	for _, m := range st.tree.Members {
		st.member.set(m)
	}
	st.lost = r.U64()
	n := r.Len()
	if static && n > 0 && r.Err() == nil {
		r.Fail(fmt.Errorf("core: snapshot group %d parks %d detached subtree roots in a session without churn, faults or re-optimization", g, n))
	}
	for ; n > 0; n-- {
		st.detached = append(st.detached, readIndex(r, numHosts, "detached subtree root"))
	}
}

// writeHosts writes one record per host. A host with no forwarder writes
// the record of one whose mode was never set, which is all zero.
func (c *codec) writeHosts(w *snap.Writer, _ int) {
	w.Len(len(c.s.hosts))
	var leaf forwarder
	for _, h := range c.s.hosts {
		f := h.fwd
		if f == nil {
			f = &leaf
		}
		w.U8(uint8(f.mode))
		w.Bool(h.fwd != nil)
		w.U32(uint32(f.switches))
		w.Bool(f.srlCycling)
		// Bank allocated-ness is state in its own right, distinct from the
		// entries: attachGroup only fills group slots of an already
		// allocated bank (a host whose children were all pruned keeps its
		// empty bank), so a restored host must present the same shape or a
		// post-restore join would silently skip regulator creation.
		w.Bool(f.srBank != nil)
		w.Bool(f.srlBank != nil)
		// Adaptive controller: a running controller's window estimator is
		// mutable runtime state; its pending tick rides as a KindCtlTick
		// event in the engine record.
		w.Bool(f.rate != nil)
		if f.rate != nil {
			f.rate.Snapshot(w)
		}
	}
}

func (c *codec) readHosts(r *snap.Reader, _ int) {
	s := c.s
	if n := r.Len(); n != len(s.hosts) {
		r.Fail(fmt.Errorf("core: snapshot has %d hosts, session has %d", n, len(s.hosts)))
		return
	}
	// A host's children are its child sets in the restored trees: the
	// blueprint's plan when every group kept the blueprint's tree, else
	// one compiled from the trees, whose ids readGroup range-checked.
	for g, st := range s.sub.groups {
		if st.tree != s.sub.bp.trees[g] {
			s.sub.plan = compileChildren(len(s.hosts), s.sub.trees())
			break
		}
	}
	plan := s.sub.plan
	// A forwarder, its connection table and its regulator banks (each bank
	// its scheme can build) are carved from its shard's slabs, sized as a
	// build sizes them (countPlan); what the plan does not name, from a
	// refill chunk. The connection scratch (conn) fits the host with most.
	per, most := s.countPlan(plan, false)
	c.per, c.conns = per, make([]connPlan, 0, most)
	scheme := s.sub.cfg.Scheme
	for si, sh := range s.sh {
		n, sl := per[si], &sh.env.slabs
		sl.fwds = snap.NewArena[forwarder](n.fwds)
		sl.muxes.Arena = snap.NewArena[*mux.Mux](n.conns)
		if scheme == SchemeSigmaRho || scheme == SchemeAdaptive {
			sl.srBanks.Arena = snap.NewArena[*regulator.SigmaRho](n.forwards)
		}
		if scheme == SchemeSRL || scheme == SchemeAdaptive {
			sl.srlBanks.Arena = snap.NewArena[*regulator.SRL](n.forwards)
		}
	}
	for id := range s.hosts {
		h := &s.hosts[id]
		mode := Scheme(r.U8())
		if !r.Bool() {
			// A host that never forwarded has an all-zero record and no
			// child in any tree.
			switches, cycling, sr, srl, rate := r.U32(), r.Bool(), r.Bool(), r.Bool(), r.Bool()
			if (mode != 0 || switches != 0 || cycling || sr || srl || rate || len(plan.of(id).groups) > 0) && r.Err() == nil {
				r.Fail(fmt.Errorf("core: snapshot host %d never forwarded, but its record or its children say it did", id))
			}
			continue
		}
		if mode != initialMode(scheme) && !(scheme == SchemeAdaptive && mode == SchemeSRL) && r.Err() == nil {
			r.Fail(fmt.Errorf("core: snapshot host %d in mode %v, which a %v session never enters", id, mode, scheme))
		}
		if r.Err() != nil {
			return
		}
		f := h.newForwarder()
		f.children = plan.of(id)
		sl := &h.env.slabs
		f.muxes = sl.muxes.Take(f.children.slots())
		f.mode = mode
		f.switches = int32(r.U32())
		f.srlCycling = r.Bool()
		if r.Bool() {
			f.srBank = sl.srBanks.Take(len(f.children.groups))
		}
		if r.Bool() {
			f.srlBank = sl.srlBanks.Take(len(f.children.groups))
		}
		if r.Bool() {
			// Set the controller up without scheduling its tick (the engine
			// record re-inserts the pending one), then overwrite the fresh
			// window with the serialized one.
			h.prepareController()
			f.rate.Restore(r)
		}
	}
}

// snapSource is what every source a session builds implements to ride in a
// checkpoint: it names its type, serializes its mutable words, and re-binds
// to an engine and sink, owning its events at its flow, without scheduling.
type snapSource interface {
	SnapTag() uint8
	Snapshot(w *snap.Writer)
	Restore(r *snap.Reader)
	Resume(eng *des.Engine, until des.Time, out traffic.Sink)
}

func (c *codec) writeSources(w *snap.Writer, _ int) {
	w.Len(len(c.s.sources))
	for _, src := range c.s.sources {
		ss := src.(snapSource)
		w.U8(ss.SnapTag())
		ss.Snapshot(w)
	}
}

func (c *codec) readSources(r *snap.Reader, _ int) {
	s := c.s
	if n := r.Len(); n != len(s.sources) {
		r.Fail(fmt.Errorf("core: snapshot has %d sources, session has %d groups", n, len(s.sources)))
		return
	}
	for g, src := range s.sources {
		ss := src.(snapSource)
		if tag := r.U8(); tag != ss.SnapTag() {
			r.Fail(fmt.Errorf("core: snapshot source %d has type tag %d, session built a %T", g, tag, src))
			return
		}
		ss.Restore(r)
	}
	for g := len(s.sources) - 1; g >= 0; g-- { // highest flow first: each owner table is made once
		s.sources[g].(snapSource).Resume(s.rootEngine(g), s.sub.cfg.Duration, s.rootOf(g))
	}
}

func (c *codec) writeControl(w *snap.Writer, _ int) {
	cp := c.s.ctl
	w.U32(uint32(cp.joins))
	w.U32(uint32(cp.leaves))
	w.U32(uint32(cp.regrafts))
	w.U32(uint32(cp.rejected))
}

func (c *codec) readControl(r *snap.Reader, _ int) {
	cp := c.s.ctl
	cp.joins = int(r.U32())
	cp.leaves = int(r.U32())
	cp.regrafts = int(r.U32())
	cp.rejected = int(r.U32())
}

// writeFaults serializes the fault plane's mutable state. The events, their
// kinds/times, and the sentinel bookkeeping arrays' shapes are rebuilt by
// newFaultPlane from the Config; this covers what execution changed.
func (c *codec) writeFaults(w *snap.Writer, _ int) {
	fp := c.s.fp
	writeBitmap(w, fp.down)
	// Recorded memberships awaiting restore, by ascending outage ID.
	w.Len(len(c.outages))
	for _, id := range c.outages {
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
		writeBitmap(w, fp.cutHost)
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
	writeCells(w, len(fp.trackIdx), len(fp.hosts),
		func(g, h int) bool { return fp.trackIdx[g][h] >= 0 },
		func(g, h int) {
			w.U32(uint32(fp.trackIdx[g][h]))
			w.I64(int64(fp.firstAt[g][h]))
		})
}

func (c *codec) readFaults(r *snap.Reader, _ int) {
	fp := c.s.fp
	numHosts, numGroups, numEvents := len(fp.hosts), len(fp.groups), len(fp.events)
	readBitmap(r, fp.down, numHosts, "down host")
	for ni := r.Len(); ni > 0; ni-- {
		id, ng := int(r.I64()), r.Len()
		if ng > numGroups {
			r.Fail(fmt.Errorf("core: snapshot outage %d records %d groups, session has %d", id, ng, numGroups))
			return
		}
		mem := make([][]int, ng)
		for g := range mem {
			for nh := r.Len(); nh > 0; nh-- {
				mem[g] = append(mem[g], readIndex(r, numHosts, "outage member"))
			}
		}
		fp.restoreSets[id] = mem
	}
	fp.cutOn = r.Bool()
	if fp.cutOn {
		fp.cutIdx = readIndex(r, numEvents, "cut event")
		fp.cutHost.reset(numHosts)
		readBitmap(r, fp.cutHost, numHosts, "cut host")
	}
	if n := r.Len(); n != numEvents {
		r.Fail(fmt.Errorf("core: snapshot has %d fault outcomes, session has %d", n, numEvents))
		return
	}
	for i := range fp.outcomes {
		oc := &fp.outcomes[i]
		oc.Hosts = int(r.U32())
		oc.Regrafts = int(r.U32())
		oc.Lost = r.U64()
		oc.RecoverySec = r.F64()
		oc.Unrecovered = int(r.U32())
	}
	if n := r.Len(); n != numEvents {
		r.Fail(fmt.Errorf("core: snapshot has %d tracked lists, session has %d", n, numEvents))
		return
	}
	for i := range fp.tracked {
		for np := r.Len(); np > 0; np-- {
			g := readIndex(r, numGroups, "tracked group")
			fp.tracked[i] = append(fp.tracked[i], faultTrack{g: g, h: readIndex(r, numHosts, "tracked host")})
		}
	}
	readCells(r, numGroups, numHosts, "tracker cell", func(g, h int) {
		fp.trackIdx[g][h] = int32(readIndex(r, numEvents, "tracker cell event"))
		fp.firstAt[g][h] = des.Time(r.I64())
	})
}

// writeReopt serializes the re-optimization plane's mutable state (the
// estimate cells sparsely — only cells with observations).
func (c *codec) writeReopt(w *snap.Writer, _ int) {
	ro := c.s.ro
	writeCells(w, len(ro.est), len(ro.hosts),
		func(g, h int) bool { return ro.est[g][h].n > 0 },
		func(g, h int) {
			w.F64(ro.est[g][h].sum)
			w.U64(ro.est[g][h].n)
		})
	for g := range ro.cooldown {
		w.I64(int64(ro.cooldown[g]))
	}
	w.U32(uint32(ro.accepted))
	w.U32(uint32(ro.moves))
	w.U32(uint32(ro.rejected))
}

func (c *codec) readReopt(r *snap.Reader, _ int) {
	ro := c.s.ro
	readCells(r, len(ro.est), len(ro.hosts), "estimate cell", func(g, h int) {
		ro.est[g][h] = delayEst{sum: r.F64(), n: r.U64()}
	})
	for g := range ro.cooldown {
		ro.cooldown[g] = des.Time(r.I64())
	}
	ro.accepted = int(r.U32())
	ro.moves = int(r.U32())
	ro.rejected = int(r.U32())
}

// --- Per-shard records: components, pending events, statistics ---

// compTotals opens a components record: the counts a restore sizes its
// storage from before it makes the first component — components per family
// (in family order), then queued MUX packets and queued regulator packets.
// Sizing hints: a record that understates them restores correctly, with
// more allocations. The two packet totals size the first chunk of the
// shard's packet pool (mux.Line.Pool), which the restored regulator queues
// take their windows from and the run's queues grow into.
type compTotals struct {
	comps               [numFamilies]int
	muxPackets, packets int
}

const compTotalsWords = int(numFamilies) - 1 + 2

// stanzaBytes is the least one component's stanza occupies on the wire: the
// words writeFamily puts ahead of the component's own, plus those of an
// idle component with empty queues. Restore holds each family's count to
// it, as it holds the other totals to their elements' widths.
var stanzaBytes = [numFamilies]int{
	famMux:   4 + 4 + 4 + 1 + mux.SnapBytes,
	famSR:    4 + 4 + 4 + 1 + regulator.SigmaRhoSnapBytes,
	famCycle: 4 + 4 + 4 + 1 + regulator.CycleSnapBytes,
	famSRL:   4 + 4 + 4 + 1 + 1 + regulator.SRLSnapBytes,
}

func (t *compTotals) read(r *snap.Reader) {
	for f := famMux; f < numFamilies; f++ {
		t.comps[f] = r.Count(stanzaBytes[f])
	}
	t.muxPackets = r.Count(traffic.PacketSnapBytes)
	t.packets = r.Count(traffic.PacketSnapBytes)
}

// shardSnap is what one shard's records write, as Snapshot gathers it
// before it sizes the stream: the engine's pending events in seq order;
// per family the registry slots of the components written — every live
// one (in service at its host) and every one a pending event names — and
// which of those are live; and the totals that open the components record.
type shardSnap struct {
	evs        []des.PendingEvent
	keep, live [numFamilies]bitset
	tot        compTotals
}

// gather fills c.shards: each engine's pending events, in one buffer, and
// the components each shard's record writes, whose sets are windows of one
// bitset; and c.outages, for the fault record. It marks the live ones in
// one pass over the forwarders — a MUX in a connection table, a regulator
// in a bank — and every clock, which is never retired; then the ones out
// of service that a pending event names:
// a dropped MUX still draining its queue, a detached (σ, ρ, λ) regulator
// mid-transmission, which retire when that event fires. Those are written
// with live=false, so the re-inserted event finds them without
// re-installing them. A component is counted into its shard's totals as it
// is marked, so no pass walks the owner tables' retired holes.
func (c *codec) gather() error {
	s := c.s
	events, n := 0, 0
	for _, sh := range s.sh {
		events += sh.eng.Pending()
		for f := famMux; f < numFamilies; f++ {
			n += 2 * words(len(sh.eng.Owners(famKind[f])))
		}
	}
	evs, sets := make([]des.PendingEvent, events), make(bitset, n)
	c.shards = make([]shardSnap, len(s.sh))
	for si, sh := range s.sh {
		ss := &c.shards[si]
		n := sh.eng.Pending()
		var err error
		if ss.evs, err = sh.eng.PendingEvents(evs[:0:n]); err != nil {
			return err
		}
		evs = evs[n:]
		for f := famMux; f < numFamilies; f++ {
			k := words(len(sh.eng.Owners(famKind[f])))
			ss.keep[f], ss.live[f], sets = sets[:k:k], sets[k:2*k:2*k], sets[2*k:]
		}
		for slot, h := range sh.eng.Owners(famKind[famCycle]) {
			if h != nil {
				ss.mark(famCycle, slot, h.(component))
			}
		}
	}
	for id := range s.hosts {
		f := s.hosts[id].fwd
		if f == nil {
			continue
		}
		ss := &c.shards[s.owner[id]]
		for _, m := range f.muxes {
			if m != nil {
				ss.mark(famMux, int(m.Slot()), m)
			}
		}
		for _, r := range f.srBank {
			if r != nil {
				ss.mark(famSR, int(r.Slot()), r)
			}
		}
		for _, r := range f.srlBank {
			if r != nil {
				ss.mark(famSRL, int(r.Slot()), r)
			}
		}
	}
	for si, sh := range s.sh {
		ss := &c.shards[si]
		for _, ev := range ss.evs {
			f := kindFam[ev.Kind]
			if f == famNone || ss.keep[f].has(int(ev.Arg)) {
				continue
			}
			if h := sh.eng.Owners(ev.Kind)[ev.Arg]; h != nil { // a hole holds no component, named or not
				ss.add(f, int(ev.Arg), h.(component))
			}
		}
	}
	if fp := s.fp; fp != nil {
		c.outages = make([]int, 0, len(fp.restoreSets))
		for id := range fp.restoreSets {
			c.outages = append(c.outages, id)
		}
		slices.Sort(c.outages)
	}
	return nil
}

// mark adds the live component c at slot of family f to those written.
func (ss *shardSnap) mark(f family, slot int, c component) {
	ss.live[f].set(slot)
	ss.add(f, slot, c)
}

// add puts the component c at slot of family f among those written and
// counts it into the totals.
func (ss *shardSnap) add(f family, slot int, c component) {
	ss.keep[f].set(slot)
	t := &ss.tot
	t.comps[f]++
	switch c := c.(type) {
	case *mux.Mux:
		t.muxPackets += c.Len()
	case *regulator.SigmaRho:
		t.packets += c.QueueLen()
	case *regulator.SRL:
		t.packets += c.QueueLen()
	}
}

// writeComponents serializes one engine's component registries, family by
// family, behind the record's totals: the components gather chose.
func (c *codec) writeComponents(w *snap.Writer, si int) {
	sh, ss := c.s.sh[si], &c.shards[si]
	for f := famMux; f < numFamilies; f++ {
		w.Len(ss.tot.comps[f])
	}
	w.Len(ss.tot.muxPackets)
	w.Len(ss.tot.packets)
	for f := famMux; f < numFamilies; f++ {
		writeFamily(w, sh.env, f, sh.eng.Owners(famKind[f]), ss.keep[f], ss.live[f])
	}
}

// writeFamily writes the components of one family — the engine's owner
// table for its kinds — that keep holds: per component a stanza of slot,
// owning host, sub-index, liveness, ((σ, ρ, λ) regulator only) whether it
// follows its clock, and the component's own words.
func writeFamily(w *snap.Writer, env *hostEnv, f family, comps []des.Handler, keep, live bitset) {
	for wi, word := range keep {
		for ; word != 0; word &= word - 1 {
			slot := wi*64 + bits.TrailingZeros64(word)
			comp := comps[slot].(component)
			id := env.ident(slot, comp)
			w.U32(uint32(slot))
			w.U32(uint32(id.host))
			w.U32(uint32(id.sub))
			w.Bool(live.has(slot))
			if f == famSRL {
				// Which clock is implied — the one for (sub, the host's capacity).
				w.Bool(comp.(*regulator.SRL).Following())
			}
			comp.Snapshot(w)
		}
	}
}

// readComponents reconstructs one engine's serialized components in slabs sized
// from the record's totals, through the host's restoreComp (which
// registers them in the engine's owner tables, each family's in the order
// written), installs the live ones, and keeps each family's serialized
// slots for the events record that follows.
func (c *codec) readComponents(r *snap.Reader, si int) {
	s := c.s
	var t compTotals
	t.read(r)
	if r.Err() != nil {
		return
	}
	env := s.sh[si].env
	for f := famMux; f < numFamilies; f++ {
		env.eng.Grow(famKind[f], t.comps[f])
	}
	sl := &env.slabs
	sl.mux = mux.NewSlab(t.comps[famMux], t.muxPackets+c.per[si].edges)
	// The shard's packet pool starts with room for every queued packet the
	// record holds: the regulators' queues take their windows of it.
	*env.line.Pool() = snap.NewArena[traffic.Packet](t.packets + t.muxPackets)
	sl.reg = regulator.NewSlab(t.comps[famSR], t.comps[famCycle], t.comps[famSRL], env.line.Pool())
	sl.regLinks = snap.NewArena[regLink](t.comps[famSR] + t.comps[famSRL])
	env.sizeClocks(t.comps[famCycle])
	numGroups := s.sub.numGroups()
	subs := [numFamilies]int{famMux: len(s.hosts), famSR: numGroups, famCycle: numGroups, famSRL: numGroups}
	for f := famMux; f < numFamilies; f++ {
		n := t.comps[f]
		c.slots[f] = make([]uint32, 0, n)
		for ; n > 0; n-- {
			slot := r.U32()
			if last := len(c.slots[f]) - 1; last >= 0 && slot <= c.slots[f][last] {
				r.Fail(fmt.Errorf("core: snapshot component slot %d out of order", slot))
			}
			hid := readIndex(r, len(s.hosts), "component host")
			sub := readIndex(r, subs[f], "component sub-index")
			live := r.Bool()
			following := f == famSRL && r.Bool()
			if r.Err() == nil && s.owner[hid] != si {
				r.Fail(fmt.Errorf("core: snapshot shard %d holds a component of host %d, which shard %d owns", si, hid, s.owner[hid]))
			}
			if r.Err() != nil {
				return
			}
			h := &s.hosts[hid]
			if h.fwd == nil {
				r.Fail(fmt.Errorf("core: snapshot shard %d holds a component of host %d, which never forwarded", si, hid))
				return
			}
			if f == famCycle && h.findCycle(sub) != nil {
				r.Fail(fmt.Errorf("core: snapshot shard %d holds two clocks for group %d at host %d's capacity", si, sub, hid))
				return
			}
			at, routed := int32(-1), 0
			if f == famMux && live {
				at, routed = c.conn(h.fwd, sub)
			}
			comp := h.restoreComp(r, f, sub, routed)
			if live && !h.install(f, sub, at, comp) {
				r.Fail(fmt.Errorf("core: snapshot host %d holds a live component of family %d for %d, which its children contradict", hid, f, sub))
				return
			}
			if following {
				// Its clock was restored by the family before this one.
				cy := h.findCycle(sub)
				if cy == nil {
					r.Fail(fmt.Errorf("core: snapshot regulator of host %d, group %d follows a clock the snapshot does not hold", hid, sub))
					return
				}
				comp.(*regulator.SRL).Rejoin(r, cy)
			}
			switch {
			case !live:
				retireRestored(comp)
			case f == famMux && at < 0:
				// In service but named by no edge: a connection closing as
				// it drains (closeConn). install put it last.
				h.fwd.closeConn(int32(len(h.fwd.muxes) - 1))
			}
			c.slots[f] = append(c.slots[f], slot)
		}
	}
}

// writeEvents serializes one engine's pending events in seq order. A
// KindFlight event carries its in-flight delivery inline, because the
// flight-pool node index in arg is meaningless across processes.
func (c *codec) writeEvents(w *snap.Writer, si int) {
	fabric, evs := c.s.sh[si].fabric, c.shards[si].evs
	w.Len(len(evs))
	for _, ev := range evs {
		w.I64(int64(ev.At))
		w.I64(int64(ev.Prio))
		w.U16(ev.Kind)
		w.U32(ev.Arg)
		if ev.Kind == des.KindFlight {
			dst, p := fabric.PendingFlight(ev.Arg)
			w.U32(uint32(dst))
			p.Snapshot(w)
		}
	}
}

// readEvents re-inserts one engine's serialized events in original order
// (the engine's clock already stands at the checkpoint instant). Fresh
// ascending sequence numbers preserve the original relative firing order.
// Everything an event can name — this shard's components, the sources,
// the hosts — was restored, and registered in the engine's owner tables,
// by an earlier record; the engine refuses an event that names no owner.
//
// The engine's event pool and the fabric's flights (their table too) are
// sized first, each in one block: the record's count, and the flights
// among its events, read ahead on a copy of the reader.
func (c *codec) readEvents(r *snap.Reader, si int) {
	s := c.s
	sh := s.sh[si]
	n := r.Count(eventSnapBytes)
	sh.eng.Reserve(n)
	sh.fabric.ReserveFlights(countFlights(*r, n))
	done, waits := &c.ref[famMux], &c.ref[famSR]
	done.reset(len(c.slots[famMux]))
	waits.reset(len(c.slots[famSR]))
	for ; n > 0; n-- {
		at, prio := des.Time(r.I64()), des.Time(r.I64())
		kind, arg := r.U16(), r.U32()
		if r.Err() != nil {
			return
		}
		if at < c.at {
			r.Fail(fmt.Errorf("core: snapshot event at %v precedes the checkpoint instant %v", at, c.at))
			return
		}
		if kind == des.KindFlight {
			dst := readIndex(r, len(s.hosts), "flight destination")
			p := traffic.RestorePacket(r, s.sub.numGroups())
			if r.Err() != nil {
				return
			}
			if err := sh.fabric.RestoreFlight(at, prio, dst, p); err != nil {
				r.Fail(fmt.Errorf("core: snapshot flight: %w", err))
				return
			}
			continue
		}
		if kind < des.NumKinds && kindFam[kind] != famNone {
			f := kindFam[kind]
			// A component's slot here is the rank of the one it was written
			// under among its family's (readComponents).
			i, ok := slices.BinarySearch(c.slots[f], arg)
			if !ok {
				r.Fail(fmt.Errorf("core: snapshot event kind %d names component slot %d, which the snapshot does not hold", kind, arg))
				return
			}
			arg = uint32(i)
		}
		if kind == des.KindMuxDone { // one per MUX in transmission, none for an idle one
			if m, ok := sh.eng.Owners(kind)[arg].(*mux.Mux); !ok || done.has(int(arg)) || !m.Busy() {
				r.Fail(fmt.Errorf("core: snapshot MUX completion at %v names a MUX with no packet in transmission for it", at))
				return
			}
			done.set(int(arg))
		}
		if kind == des.KindSRRetry { // one per (σ, ρ) regulator waiting for tokens
			if waits.has(int(arg)) {
				r.Fail(fmt.Errorf("core: snapshot token wait at %v names a (σ, ρ) regulator that already waits", at))
				return
			}
			waits.set(int(arg))
		}
		ev, err := sh.eng.Reinsert(at, prio, kind, arg)
		if err != nil {
			r.Fail(fmt.Errorf("core: snapshot %w", err))
			return
		}
		if kind == des.KindSRRetry {
			// Detach cancels a regulator's token wait, its one handle, and
			// the regulator serves exactly while one is pending.
			sh.eng.Owners(kind)[arg].(*regulator.SigmaRho).Reattach(ev)
		}
	}
}

// eventSnapBytes is the width of a pending event on the wire, a flight's
// delivery aside: (at, prio, kind, arg).
const eventSnapBytes = 8 + 8 + 2 + 4

// countFlights returns how many of the next n events on r — a copy of the
// reader, so the caller's stays where it is — are flights.
func countFlights(r snap.Reader, n int) int {
	flights := 0
	for ; n > 0 && r.Err() == nil; n-- {
		r.Raw(8 + 8)
		kind := r.U16()
		r.U32()
		if kind == des.KindFlight {
			r.Raw(4 + traffic.PacketSnapBytes)
			flights++
		}
	}
	return flights
}

// writeStats serializes one shard's measurement accumulators.
func (c *codec) writeStats(w *snap.Writer, si int) {
	sh := c.s.sh[si]
	for g := range sh.perGroup {
		sh.perGroup[g].Snapshot(w)
	}
	sh.delays.Snapshot(w)
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
}

func (c *codec) readStats(r *snap.Reader, si int) {
	sh := c.s.sh[si]
	for g := range sh.perGroup {
		sh.perGroup[g].Restore(r)
	}
	sh.delays.Restore(r)
	for g := range sh.lost {
		sh.lost[g] = r.U64()
	}
	if has := r.Bool(); has != (sh.windows != nil) {
		r.Fail(fmt.Errorf("core: snapshot window series present=%v, session expects %v", has, sh.windows != nil))
		return
	}
	if sh.windows != nil {
		sh.windows.Restore(r)
	}
	if n := r.Len(); n != len(sh.faultCut) {
		r.Fail(fmt.Errorf("core: snapshot has %d cut counters, shard has %d", n, len(sh.faultCut)))
		return
	}
	for i := range sh.faultCut {
		sh.faultCut[i] = r.U64()
	}
}

// --- The coordinator record ---

// coordRecBytes is the length of one pending cross-shard record.
const coordRecBytes = 8 + 8 + 8 + 4 + 4 + traffic.PacketSnapBytes

func (c *codec) writeCoord(w *snap.Writer, _ int) {
	coord := c.s.coord
	w.Len(len(c.s.sh))
	for src := range c.s.sh {
		w.U64(coord.SrcSeq(src))
	}
	epochs, messages, stallNum, stallDen := coord.Diagnostics()
	w.U64(epochs)
	w.U64(messages)
	w.U64(stallNum)
	w.U64(stallDen)
	for dst := range c.s.sh {
		n := coord.PendingLen(dst)
		w.Len(n)
		for i := range n {
			rc := coord.PendingRecord(dst, i)
			w.I64(int64(rc.At))
			w.I64(int64(rc.Lamport))
			w.U64(rc.Seq)
			w.U32(uint32(rc.Src))
			w.U32(uint32(rc.Payload.host))
			rc.Payload.p.Snapshot(w)
		}
	}
}

func (c *codec) readCoord(r *snap.Reader, _ int) {
	s := c.s
	if n := r.Len(); n != len(s.sh) {
		r.Fail(fmt.Errorf("core: snapshot has %d source-seq counters, session has %d shards", n, len(s.sh)))
		return
	}
	seqs := make([]uint64, len(s.sh))
	for i := range seqs {
		seqs[i] = r.U64()
	}
	s.coord.RestoreSrcSeqs(seqs)
	epochs, messages, stallNum, stallDen := r.U64(), r.U64(), r.U64(), r.U64()
	s.coord.RestoreDiagnostics(epochs, messages, stallNum, stallDen)
	for dst := range s.sh {
		n := r.Count(coordRecBytes)
		recs := make([]des.ShardRec[shardPacket], 0, n)
		for ; n > 0; n-- {
			rc := des.ShardRec[shardPacket]{
				At:      des.Time(r.I64()),
				Lamport: des.Time(r.I64()),
				Seq:     r.U64(),
				Src:     int32(readIndex(r, len(s.sh), "cross-shard record source")),
			}
			rc.Payload.host = readIndex(r, len(s.hosts), "cross-shard record host")
			rc.Payload.p = traffic.RestorePacket(r, s.sub.numGroups())
			if r.Err() == nil && rc.At < c.at {
				r.Fail(fmt.Errorf("core: snapshot cross-shard record at %v precedes the checkpoint instant %v", rc.At, c.at))
			}
			recs = append(recs, rc)
		}
		s.coord.RestorePending(dst, recs)
	}
}
