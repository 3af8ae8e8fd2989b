package core

import (
	"encoding/binary"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/des"
	"repro/internal/mux"
	"repro/internal/overlay"
	"repro/internal/snap"
	"repro/internal/stats"
)

// ComponentCount reports how many components — MUXes, regulators, clocks —
// the session's owner tables hold, for the external tests that budget a
// restore per component.
func ComponentCount(s *Session) int {
	n := 0
	for _, sh := range s.sh {
		for f := famMux; f < numFamilies; f++ {
			n += len(sh.eng.Owners(famKind[f]))
		}
	}
	return n
}

// BlueprintTrees reports, per group, whether the session's tree is its
// blueprint's own — the pointer the blueprint cache holds — and the
// blueprint's trees as Snapshot writes them, one record per group.
func BlueprintTrees(s *Session) (own []bool, stanzas []byte) {
	bp := s.sub.bp
	w := snap.NewWriterSize(1, 0)
	for g, st := range s.sub.groups {
		own = append(own, st.tree == bp.trees[g])
		w.Begin(1)
		bp.trees[g].Snapshot(w, nil)
		w.End()
	}
	stanzas, err := w.Finish()
	if err != nil {
		panic(err)
	}
	return own, stanzas
}

// TreeStanzas reports, per group record of blob, whether it carries a tree:
// the group's own, where the rest keep the blueprint's.
func TreeStanzas(blob []byte) (written []bool, err error) {
	r, _, err := snap.NewReader(blob)
	if err != nil {
		return nil, err
	}
	for tag, ok := r.Next(); ok; tag, ok = r.Next() {
		if tag == recGroup {
			written = append(written, r.Bool())
		}
		r.Raw(r.Remaining())
	}
	return written, r.Err()
}

// TreesIndexed reports, per group, whether the session's blueprint tree
// and the session's own tree hold a live RTT index: the one a tree's
// first graft point builds (overlay.Tree's live field, read by reflection
// since nothing outside the package may see it).
func TreesIndexed(s *Session) (blueprint, own []bool) {
	indexed := func(t *overlay.Tree) bool {
		return !reflect.ValueOf(t).Elem().FieldByName("live").IsNil()
	}
	bp := s.sub.bp
	for g, st := range s.sub.groups {
		blueprint = append(blueprint, indexed(bp.trees[g]))
		own = append(own, indexed(st.tree))
	}
	return blueprint, own
}

// ControllerSamples reports how many rate samples the session's running
// controllers hold in their windows, all hosts together.
func ControllerSamples(s *Session) int {
	n := 0
	for _, h := range s.hosts {
		if h.fwd != nil && h.fwd.rate != nil {
			n += rateSamples(h.fwd.rate)
		}
	}
	return n
}

// rateSamples is how many samples the window w holds (stats.WindowRate's
// n field, read by reflection since nothing outside the package may see it).
func rateSamples(w *stats.WindowRate) int {
	return int(reflect.ValueOf(w).Elem().FieldByName("n").Int())
}

// FaultsOpen reports the fault plane's open state: how many outages'
// victims await their restore, and whether a partition cut is in force.
func FaultsOpen(s *Session) (outages int, cut bool) {
	if s.fp == nil {
		return 0, false
	}
	return len(s.fp.restoreSets), s.fp.cutOn
}

// BlueprintPlan returns the child plan of the session's blueprint — the
// one its sessions read until they edit — byte for byte: its offset index,
// group ids and edges (child, connection slot), and each edge-window header
// as its window of the edges (offset, length, capacity).
func BlueprintPlan(s *Session) []byte {
	pl := s.sub.bp.plan
	var b []byte
	for _, o := range pl.off {
		b = binary.LittleEndian.AppendUint32(b, uint32(o))
	}
	for _, g := range pl.groups {
		b = binary.LittleEndian.AppendUint32(b, uint32(g))
	}
	for _, e := range pl.edges {
		b = binary.LittleEndian.AppendUint32(b, uint32(e.child))
		b = binary.LittleEndian.AppendUint32(b, uint32(e.mux))
	}
	base := uintptr(unsafe.Pointer(unsafe.SliceData(pl.edges)))
	for _, cs := range pl.kids {
		at := (uintptr(unsafe.Pointer(unsafe.SliceData(cs))) - base) / unsafe.Sizeof(edge{})
		b = binary.LittleEndian.AppendUint64(b, uint64(at))
		b = binary.LittleEndian.AppendUint64(b, uint64(len(cs)))
		b = binary.LittleEndian.AppendUint64(b, uint64(cap(cs)))
	}
	return b
}

// within reports whether window w lies inside arena's backing array.
func within[T any](w, arena []T) bool {
	size := unsafe.Sizeof(*new(T))
	at, base := uintptr(unsafe.Pointer(unsafe.SliceData(w))), uintptr(unsafe.Pointer(unsafe.SliceData(arena)))
	return at >= base && at+uintptr(len(w))*size <= base+uintptr(cap(arena))*size
}

// ChildWindows reports how the session's forwarders that have children
// hold their child sets, in host order: per forwarder, whether its windows
// — group ids, edge-window headers and every edge window — lie in its
// blueprint's plan; the address of the first one's group-id window; and
// whether the group-id windows sit back to back in one array, as one
// compile lays them out.
func ChildWindows(s *Session) (shared []bool, first uintptr, oneArena bool) {
	pl := s.sub.bp.plan
	oneArena = true
	var next uintptr
	for _, h := range s.hosts {
		if h.fwd == nil || len(h.fwd.children.groups) == 0 {
			continue
		}
		gc := h.fwd.children
		at := uintptr(unsafe.Pointer(unsafe.SliceData(gc.groups)))
		if first == 0 {
			first = at
		} else if at != next {
			oneArena = false
		}
		next = at + uintptr(len(gc.groups))*unsafe.Sizeof(int32(0))
		own := within(gc.groups, pl.groups) && within(gc.edges, pl.kids)
		for _, es := range gc.edges {
			own = own && within(es, pl.edges)
		}
		shared = append(shared, own)
	}
	return shared, first, oneArena
}

// Shards reports how many shards the session runs on.
func (s *Session) Shards() int { return len(s.sh) }

// Lookahead reports the minimum cross-shard lookahead, the narrowest a
// conservative epoch can be: the least off-diagonal entry of the session's
// lookahead matrix; 0 on one shard, which has no cross-shard pair.
func (s *Session) Lookahead() des.Duration {
	var least des.Duration
	for i, row := range s.la {
		for j, d := range row {
			if i != j && (least == 0 || d < least) {
				least = d
			}
		}
	}
	return least
}

// Groups reports the compiled (initial) per-group member sets and sources;
// the control plane's later mutations do not show here.
func (s *Session) Groups() []GroupSpec {
	out := make([]GroupSpec, len(s.sub.groups))
	for g, st := range s.sub.groups {
		out[g] = st.spec
	}
	return out
}

// ChildPlan reports the session's child plan, as an identity to compare
// across its run, and whether it is the session's own rather than its
// blueprint's.
func ChildPlan(s *Session) (plan any, own bool) { return s.sub.plan, s.sub.plan != s.sub.bp.plan }

// RewirePlan is the re-optimization plane's pick for group g's next move
// in a pass that has already moved the given members: the member it would
// rewire, its new parent and the predicted delay, before the hysteresis.
func RewirePlan(s *Session, g int, moved []int) (w, p int, predicted float64, ok bool) {
	s.ro.moved = append(s.ro.moved[:0], moved...)
	w, p, _, predicted, ok = s.ro.plan(g)
	return w, p, predicted, ok
}

// RewireOracle is RewirePlan by rewire's scan as it ran before the
// attached walk (reopt_test.go).
func RewireOracle(s *Session, g int, moved []int) (w, p int, predicted float64, ok bool) {
	return s.ro.oraclePlan(g, moved)
}

// PendingEvents reports how many events the session's engines hold.
func PendingEvents(s *Session) int {
	n := 0
	for _, sh := range s.sh {
		evs, err := sh.eng.PendingEvents(nil)
		if err != nil {
			panic(err)
		}
		n += len(evs)
	}
	return n
}

// Census counts one kind of component over a session's shards: the
// owner-table slots its engines have handed out, the components those
// slots hold, and the ones in service — a MUX in a connection table, a
// regulator in a bank.
type Census struct{ Slots, Held, InService int }

// StateCensus counts the session's MUXes and its regulators of both
// models, and the MUXes in service that some edge names.
func StateCensus(s *Session) (muxes, regs Census, named int) {
	for _, sh := range s.sh {
		for _, k := range []uint16{des.KindMuxDone, des.KindSRRetry, des.KindSRLDone} {
			c := &regs
			if k == des.KindMuxDone {
				c = &muxes
			}
			tbl := sh.eng.Owners(k)
			c.Slots += len(tbl)
			for _, h := range tbl {
				if h != nil {
					c.Held++
				}
			}
		}
	}
	for _, h := range s.hosts {
		f := h.fwd
		if f == nil {
			continue
		}
		seen := map[int32]bool{}
		for _, es := range f.children.edges {
			for _, e := range es {
				seen[e.mux] = true
			}
		}
		named += len(seen)
		for _, m := range f.muxes {
			if m != nil {
				muxes.InService++
			}
		}
		for i := range f.children.groups {
			for _, r := range []regulated{bankAt(f.srBank, i), bankAt(f.srlBank, i)} {
				if r != nil {
					regs.InService++
				}
			}
		}
	}
	return muxes, regs, named
}

// MemberEdits reports the joins and leaves the session's control plane has
// applied.
func MemberEdits(s *Session) int {
	if s.ctl == nil {
		return 0
	}
	return s.ctl.joins + s.ctl.leaves
}

// PendingCrossShard reports how many cross-shard records the session's
// coordinator holds for delivery.
func PendingCrossShard(s *Session) int {
	n := 0
	for dst := range s.sh {
		n += s.coord.PendingLen(dst)
	}
	return n
}

// RegulatorCount reports how many regulators — (σ, ρ) and (σ, ρ, λ) — the
// session's owner tables hold.
func RegulatorCount(s *Session) int {
	n := 0
	for _, sh := range s.sh {
		n += len(sh.eng.Owners(des.KindSRRetry)) + len(sh.eng.Owners(des.KindSRLDone))
	}
	return n
}

// MemberWindows returns each group's member set: its window of the
// session's membership slab, one bit per host.
func MemberWindows(s *Session) [][]uint64 {
	out := make([][]uint64, len(s.sub.groups))
	for g, st := range s.sub.groups {
		out[g] = st.member
	}
	return out
}

// ForwarderLayout reports, in host order, the hosts that hold a forwarder
// and the hosts with a child in some group's tree, and whether each shard's
// forwarders sit back to back in host order in one array — the shard's
// one forwarder arena.
func ForwarderLayout(s *Session) (fwds, parents []int, oneArena bool) {
	isParent := make([]bool, len(s.hosts))
	for _, st := range s.sub.groups {
		for _, m := range st.tree.Members {
			if p := st.tree.Parent(m); p >= 0 {
				isParent[p] = true
			}
		}
	}
	last := make([]*forwarder, len(s.sh))
	oneArena = true
	for id, h := range s.hosts {
		if isParent[id] {
			parents = append(parents, id)
		}
		if h.fwd == nil {
			continue
		}
		fwds = append(fwds, id)
		sh := s.owner[id]
		if prev := last[sh]; prev != nil && uintptr(unsafe.Pointer(h.fwd)) != uintptr(unsafe.Pointer(prev))+unsafe.Sizeof(*prev) {
			oneArena = false
		}
		last[sh] = h.fwd
	}
	return fwds, parents, oneArena
}

// MuxWiring is one MUX of a shard's owner table: the shard whose Line it
// points at (-1 for none), its output link's ends and capacity, the shard
// that owns the host it leaves from, and the host and child connection a
// forwarder files it under (-1, -1 when none has it in service).
type MuxWiring struct {
	Shard, Line int
	From, To    int
	Capacity    float64
	Owner       int
	Host, Child int
}

// MuxWirings reports every MUX of every shard's owner table, in shard and
// slot order, and how many MUXes the forwarders have in service that no
// owner table holds.
func MuxWirings(s *Session) (ws []MuxWiring, unowned int) {
	type conn struct{ host, child int }
	served := map[*mux.Mux]conn{}
	for id, h := range s.hosts {
		if h.fwd != nil {
			for _, es := range h.fwd.children.edges {
				for _, e := range es {
					served[h.fwd.muxes[e.mux]] = conn{id, int(e.child)}
				}
			}
		}
	}
	for si, sh := range s.sh {
		for _, o := range sh.eng.Owners(des.KindMuxDone) {
			m, ok := o.(*mux.Mux)
			if !ok {
				continue
			}
			w := MuxWiring{Shard: si, Line: -1, Host: -1, Child: -1}
			for sj, other := range s.sh {
				if muxField(m, "line").Pointer() == uintptr(unsafe.Pointer(other.env.line)) {
					w.Line = sj
					break
				}
			}
			w.From, w.To = m.Ends()
			w.Capacity = muxField(m, "c").Float()
			w.Owner = s.owner[w.From]
			if c, ok := served[m]; ok {
				w.Host, w.Child = c.host, c.child
				delete(served, m)
			}
			ws = append(ws, w)
		}
	}
	return ws, len(served)
}

// muxField reads m's unexported field name — its line, its capacity c or
// its priced link delay, lat — by reflection, since nothing outside package mux may see it.
func muxField(m *mux.Mux, name string) reflect.Value {
	return reflect.ValueOf(m).Elem().FieldByName(name)
}

// CompileBlueprint compiles cfg's blueprint through the cache — network,
// member sets, trees and child plan — and returns its group count.
func CompileBlueprint(cfg Config) int {
	cfg.fillDefaults()
	n := cfg.groupCount()
	blueprintFor(&cfg, n).children()
	return n
}

// KeyOf is cfg's blueprint key.
func KeyOf(cfg Config) [32]byte {
	cfg.fillDefaults()
	return blueprintKey(&cfg, cfg.groupCount())
}

// NormShards is the Norm of the identity matrix's Shards = n column.
const NormShards = normShards

// EnvShards is the shard count n of the Shards = n rows: WDCSIM_SHARDS
// (the CI shard matrix), 4 when it is unset.
func EnvShards(t testing.TB) int {
	v := os.Getenv("WDCSIM_SHARDS")
	if v == "" {
		return 4
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		t.Fatalf("bad WDCSIM_SHARDS=%q", v)
	}
	return n
}

// The identity matrix's fixtures, built by the package's own tests.
var (
	ShardBaseConfig = shardBaseConfig
	FaultBaseConfig = faultBaseConfig
	ChurnConfig     = churnConfig
	RangeMembers    = rangeMembers
	UplinkConfig    = uplinkConfig
)

// ParkedRootsConfig is TestOutageAndMassLeaveTakeParkedRoots's fixture.
func ParkedRootsConfig(t testing.TB) Config {
	cfg, _, _ := parkedRoots(t)
	return cfg
}

// CheckEdges holds every host's edge table to what the session's live
// trees and network imply: each host forwards each group to exactly the
// children that group's tree gives it, each edge names a MUX in service
// on the link from the host to that child, each regulator in a bank
// outputs to its own slot, and each MUX in service is its host's only one
// to its child, its link priced at Network.Latency bit for bit. nil when
// all of it holds.
func CheckEdges(s *Session) error {
	want := make([]map[int][]int, len(s.sub.groups)) // group -> parent -> sorted children
	for g, st := range s.sub.groups {
		want[g] = map[int][]int{}
		st.tree.EachParent(func(p int, cs []int) { want[g][p] = slices.Sorted(slices.Values(cs)) })
	}
	for id, h := range s.hosts {
		f := h.fwd
		forwards := 0
		if f != nil {
			forwards = len(f.children.groups)
			for i, g := range f.children.groups {
				var got []int
				for _, e := range f.children.edges[i] {
					got = append(got, int(e.child))
					if int(e.mux) >= len(f.muxes) || f.muxes[e.mux] == nil {
						return fmt.Errorf("host %d: group %d's edge to %d names connection slot %d, which holds no MUX", id, g, e.child, e.mux)
					}
					if from, to := f.muxes[e.mux].Ends(); from != id || to != int(e.child) {
						return fmt.Errorf("host %d: group %d's edge to %d names the MUX of link %d→%d", id, g, e.child, from, to)
					}
				}
				slices.Sort(got)
				if w := want[g][id]; !slices.Equal(got, w) {
					return fmt.Errorf("host %d: group %d's edges go to %v, its tree's children are %v", id, g, got, w)
				}
				for _, r := range []regulated{bankAt(f.srBank, i), bankAt(f.srlBank, i)} {
					if r != nil && linkOf(r).slot != int32(i) {
						return fmt.Errorf("host %d: group %d's regulator at slot %d outputs to slot %d", id, g, i, linkOf(r).slot)
					}
				}
			}
			seen := map[int]bool{}
			for _, m := range f.muxes {
				if m == nil {
					continue
				}
				from, to := m.Ends()
				if seen[to] {
					return fmt.Errorf("host %d: two MUXes in service to %d", id, to)
				}
				seen[to] = true
				if lat, priced := s.sub.net.Latency(from, to), des.Duration(muxField(m, "lat").Int()); priced != lat {
					return fmt.Errorf("host %d: MUX to %d priced at %v, the network's latency is %v", id, to, priced, lat)
				}
			}
		}
		for g := range want {
			if _, ok := want[g][id]; ok {
				forwards--
			}
		}
		if forwards != 0 {
			return fmt.Errorf("host %d forwards %d groups more than its trees give it children in", id, forwards)
		}
	}
	return nil
}

// EditCycle returns a graft/prune cycle of the wiring edits churn makes on
// s: host p, group g's source, takes c — the lowest other host it has no
// connection to — as a child in group h over a new connection, and
// unhooks it again. It also returns a group p forwards nothing in, or -1.
func EditCycle(s *Session, g int) (cycle func(h int), none int) {
	e := newEdits(s.sub, s.hosts)
	p := s.sub.groups[g].tree.Source
	f := s.hosts[p].fwd
	c := 0
	for ; ; c++ {
		if i, _ := f.connTo(c); c != p && i < 0 {
			break
		}
	}
	none = -1
	for g := range s.sub.groups {
		if f.children.find(g) < 0 {
			none = g
			break
		}
	}
	return func(h int) {
		e.attach(h, p, c)
		e.unhook(h, p, c)
	}, none
}

// TreeEditCycles returns two cycles of the tree edits churn and faults
// make on group g of s, each leaving g's member set as it found it: leave,
// in which the lowest member with children leaves (controlPlane.leave:
// Tree.Prune, its orphans repaired by Tree.RepairWith) and joins again,
// and batch, in which the two lowest members with children are removed in
// one step (edits.remove: Tree.PruneAll), their orphans repaired, and both
// join again. Each panics if an edit it makes is refused.
func TreeEditCycles(s *Session, g int) (leave, batch func()) {
	cp := &controlPlane{edits: newEdits(s.sub, s.hosts)}
	st := s.sub.groups[g]
	var victims [2]int
	// lowest fills victims with the n lowest members that have children.
	lowest := func(n int) []int {
		vs := victims[:0]
		for _, m := range st.tree.Members {
			if m == st.tree.Source || st.tree.SubtreeHeight(m) == 0 {
				continue
			}
			i := len(vs)
			for i > 0 && vs[i-1] > m {
				i--
			}
			if i < n {
				vs = slices.Insert(vs[:min(len(vs), n-1)], i, m)
			}
		}
		if len(vs) < n {
			panic(fmt.Sprintf("core: group %d has %d members with children, want %d", g, len(vs), n))
		}
		return vs
	}
	join := func(h int) {
		if !cp.graft(g, h) {
			panic(fmt.Sprintf("core: group %d refused %d's join", g, h))
		}
	}
	leave = func() {
		h := lowest(1)[0]
		if !cp.leave(g, h) {
			panic(fmt.Sprintf("core: group %d refused %d's leave", g, h))
		}
		join(h)
	}
	batch = func() {
		vs := lowest(2)
		orphans, _ := cp.remove(g, vs)
		cp.repair(g, orphans)
		for _, v := range vs {
			join(v)
		}
	}
	return leave, batch
}

// bankAt is bank's regulator at slot i, or nil when the bank was never
// built or holds none there.
func bankAt[R interface {
	comparable
	regulated
}](bank []R, i int) regulated {
	var none R
	if i >= len(bank) || bank[i] == none {
		return nil
	}
	return bank[i]
}
