package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/des"
	"repro/internal/mux"
	"repro/internal/overlay"
	"repro/internal/snap"
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

// BlueprintPlan returns the child plan of the session's blueprint — the
// one its sessions read until they edit — byte for byte: its offset index, group
// ids and child ids, and each child-list header as its window of the
// child ids (offset, length, capacity).
func BlueprintPlan(s *Session) []byte {
	pl := s.sub.bp.plan
	var b []byte
	for _, o := range pl.off {
		b = binary.LittleEndian.AppendUint32(b, uint32(o))
	}
	for _, g := range pl.groups {
		b = binary.LittleEndian.AppendUint32(b, uint32(g))
	}
	for _, id := range pl.ids {
		b = binary.LittleEndian.AppendUint64(b, uint64(id))
	}
	base := uintptr(unsafe.Pointer(unsafe.SliceData(pl.ids)))
	for _, cs := range pl.kids {
		at := (uintptr(unsafe.Pointer(unsafe.SliceData(cs))) - base) / unsafe.Sizeof(int(0))
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
// — group ids, child-list headers and every child list — lie in its
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
		own := within(gc.groups, pl.groups) && within(gc.kids, pl.kids)
		for _, cs := range gc.kids {
			own = own && within(cs, pl.ids)
		}
		shared = append(shared, own)
	}
	return shared, first, oneArena
}

// ChildPlan reports the session's child plan, as an identity to compare
// across its run, and whether it is the session's own rather than its
// blueprint's.
func ChildPlan(s *Session) (plan any, own bool) { return s.sub.plan, s.sub.plan != s.sub.bp.plan }

// SnapshotHint reports the capacity the session's next Snapshot starts its
// stream at.
func SnapshotHint(s *Session) int { return s.snapSize }

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
		n += sh.eng.Pending()
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
// points at (-1 for none), its output link's ends, the shard that owns the
// host it leaves from, and the host and child connection a forwarder files
// it under (-1, -1 when none has it in service).
type MuxWiring struct {
	Shard, Line int
	From, To    int
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
			for i, m := range h.fwd.muxes {
				served[m] = conn{id, int(h.fwd.muxChild[i])}
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
				if m.Line() == other.env.line {
					w.Line = sj
					break
				}
			}
			w.From, w.To = m.Ends()
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

// Norm is what one transformation of the identity matrix (identity_test.go)
// lets differ from the straight one-shard run of the same Config. Every
// other field of Result must be equal, by reflect.DeepEqual.
type Norm uint8

const (
	// NormRestore sets aside Epochs and StallShare: RunTo clamps an epoch's
	// end at each checkpoint, so they measure how the run was sliced.
	NormRestore Norm = 1 << iota
	// NormShards sets aside the sharded execution's diagnostics — Shards,
	// Epochs, CrossShardMsgs and StallShare — and holds MeanDelay to 1e-9
	// relative: shard-local mean accumulators merge in shard order.
	NormShards
)

// SameRun is the one comparator of whole runs: nil when got equals want
// once n's fields are set aside, else an error naming every field that
// differs.
func SameRun(want, got Result, n Norm) error {
	var diffs []string
	if n&NormShards != 0 {
		if math.Abs(got.MeanDelay-want.MeanDelay) > 1e-9*math.Abs(want.MeanDelay) {
			diffs = append(diffs, fmt.Sprintf("MeanDelay %.17g, want %.17g within 1e-9 relative", got.MeanDelay, want.MeanDelay))
		}
		got.MeanDelay = want.MeanDelay
		want.Shards, want.CrossShardMsgs, got.Shards, got.CrossShardMsgs = 0, 0, 0, 0
	}
	if n != 0 {
		want.Epochs, want.StallShare, got.Epochs, got.StallShare = 0, 0, 0, 0
	}
	if diffs == nil && reflect.DeepEqual(want, got) {
		return nil
	}
	w, g := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := range w.NumField() {
		if wf, gf := w.Field(i).Interface(), g.Field(i).Interface(); !reflect.DeepEqual(wf, gf) {
			diffs = append(diffs, fmt.Sprintf("%s %+v, want %+v", w.Type().Field(i).Name, gf, wf))
		}
	}
	return errors.New(strings.Join(diffs, "; "))
}

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
