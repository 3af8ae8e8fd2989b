package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/mux"
	"repro/internal/regulator"
	"repro/internal/snap"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// TestSnapshotGuards pins the remaining explicit refusal: an unstarted
// session fails with an error, not a corrupt snapshot. (Configuration
// coverage is total — the adaptive and VBR families restore bit-identical
// in the identity matrix's checkpoint columns.)
func TestSnapshotGuards(t *testing.T) {
	cfg := shardBaseConfig(3)
	if _, err := NewSession(cfg).Snapshot(); err == nil {
		t.Error("snapshot before Start did not fail")
	}
}

// TestRestoreRejectsMismatch pins the sanity checks: a snapshot restored
// under a different configuration, a wrong shard count, a truncated
// stream, or a wrong version fails with an error.
func TestRestoreRejectsMismatch(t *testing.T) {
	cfg := shardBaseConfig(5)
	s := NewSession(cfg)
	s.Start()
	s.RunTo(des.Second)
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// The meta record's blueprint key and discipline refuse each of these.
	for name, mutate := range map[string]func(*Config){
		"seed":       func(c *Config) { c.Seed = 6 },
		"host count": func(c *Config) { c.NumHosts++ },
		"group count": func(c *Config) {
			c.NumGroups--
			c.Groups = c.Groups[:c.NumGroups]
		},
		"strategy":   func(c *Config) { c.Strategy = "spt" },
		"topology":   func(c *Config) { c.Topology = topo.Waxman{N: 32} },
		"member set": func(c *Config) { c.Groups = slices.Clone(c.Groups); c.Groups[2].Members = rangeMembers(10, 121) },
		"cluster k":  func(c *Config) { c.ClusterK = 4 },
		"discipline": func(c *Config) { c.Discipline = mux.FIFO },
		// The meta record's control-plane flags refuse these, each of which
		// adds a record the static blob lacks.
		"churn on": func(c *Config) {
			c.Events = []MembershipEvent{{At: 2 * des.Second, Group: 2, Host: 150, Join: true}}
		},
		"faults on": func(c *Config) {
			c.Faults = []FaultEvent{{At: 2 * des.Second, Kind: FaultMassLeave, Group: 2, Hosts: rangeMembers(50, 60)}}
		},
		"reopt on": func(c *Config) { c.Reopt = ReoptConfig{Every: 500 * des.Millisecond} },
	} {
		other := cfg
		mutate(&other)
		if _, err := Restore(other, blob); err == nil || !strings.Contains(err.Error(), "different configuration") {
			t.Errorf("restore under a different %s: err = %v, want the different-configuration error", name, err)
		}
	}
	sharded := cfg
	sharded.Shards = 4
	if _, err := Restore(sharded, blob); err == nil {
		t.Error("restore of a one-shard snapshot into a 4-shard session did not fail")
	}
	s4 := NewSession(sharded)
	s4.Start()
	s4.RunTo(des.Second)
	blob4, err := s4.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(cfg, blob4); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Errorf("restore of a 4-shard snapshot into a one-shard session: err = %v, want a shard-count error", err)
	}
	for _, old := range []uint32{2, 4, 9, 10, 11} {
		hdr, err := snap.NewWriterSize(old, 0).Finish()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Restore(cfg, hdr); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", old)) {
			t.Errorf("restore of a version-%d snapshot: err = %v, want the version error", old, err)
		}
	}
	if _, err := Restore(cfg, blob[:len(blob)/2]); err == nil {
		t.Error("restore of a truncated snapshot did not fail")
	}
	if _, err := Restore(cfg, []byte{0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Error("restore of garbage did not fail")
	}

	// The happy path still works after all the failed attempts above
	// (Restore must not mutate shared state before validation passes).
	restored, err := Restore(cfg, blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := SameRun(Run(cfg), restored.Finish(), NormRestore); err != nil {
		t.Fatalf("restore after rejected attempts diverged: %v", err)
	}
}

// TestEveryKindHasOneOwnerTable: every kind a session schedules fires from
// one owner table on each engine — the kinds one component fires share
// their family's table, which holds that family's components alone, a
// clock for each of the engine's clock idents — every pending event's arg names an
// owner in its kind's table, and the retired kinds have no table. The
// flights are the pooled family: they have no table, and a pending
// flight's arg names a node of its shard's flight pool, carrying a packet
// to a host the shard owns. The
// sessions between them schedule every kind but the closure: (σ, ρ, λ) and
// (σ, ρ) regulators on extremal flows, the adaptive controller on VBR
// audio and video, and two shards.
func TestEveryKindHasOneOwnerTable(t *testing.T) {
	srl := shardBaseConfig(3)
	srl.Duration = des.Second
	sr, vbr, sharded := srl, srl, srl
	sr.Scheme = SchemeSigmaRho
	vbr.Scheme, vbr.Workload, vbr.Mix = SchemeAdaptive, WorkloadVBR, traffic.MixHetero
	sharded.Shards = 2
	isFamily := func(h des.Handler, f family) bool {
		switch h.(type) {
		case *mux.Mux:
			return f == famMux
		case *regulator.SigmaRho:
			return f == famSR
		case *regulator.Cycle:
			return f == famCycle
		case *regulator.SRL:
			return f == famSRL
		}
		return false
	}
	scheduled := map[uint16]bool{}
	for name, cfg := range map[string]Config{"srl": srl, "sr": sr, "adaptive-vbr": vbr, "sharded": sharded} {
		s := NewSession(cfg)
		s.Start()
		s.RunTo(des.Second / 2)
		for si, sh := range s.sh {
			for k, n := range sh.eng.ExecutedByKind() {
				scheduled[uint16(k)] = scheduled[uint16(k)] || n > 0
			}
			for _, k := range []uint16{1, 14, 15} {
				if tbl := sh.eng.Owners(k); tbl != nil {
					t.Errorf("%s/%d: retired kind %d has an owner table of %d slots", name, si, k, len(tbl))
				}
			}
			for k := uint16(0); k < des.NumKinds; k++ {
				f := kindFam[k]
				if f == famNone {
					continue
				}
				tbl, fam := sh.eng.Owners(k), sh.eng.Owners(famKind[f])
				if len(tbl) != len(fam) || len(tbl) > 0 && &tbl[0] != &fam[0] || f == famCycle && len(tbl) != len(sh.env.clocks) {
					t.Errorf("%s/%d: kind %d fires from a table of %d slots apart from its family's %d", name, si, k, len(tbl), len(fam))
				}
				for slot, h := range tbl {
					if !isFamily(h, f) {
						t.Errorf("%s/%d: kind %d's table holds a %T at slot %d", name, si, k, h, slot)
					}
				}
			}
			evs, err := sh.eng.PendingEvents(nil)
			if err != nil {
				t.Fatal(err)
			}
			if tbl := sh.eng.Owners(des.KindFlight); tbl != nil {
				t.Errorf("%s/%d: the pooled flight family has an owner table of %d slots", name, si, len(tbl))
			}
			for _, ev := range evs {
				scheduled[ev.Kind] = true
				if ev.Kind == des.KindFlight {
					if dst, p := sh.fabric.PendingFlight(ev.Arg); s.owner[dst] != si || p.Flow < 0 || p.Flow >= len(s.sub.groups) {
						t.Errorf("%s/%d: pending flight %d carries group %d to host %d of shard %d", name, si, ev.Arg, p.Flow, dst, s.owner[dst])
					}
					continue
				}
				if tbl := sh.eng.Owners(ev.Kind); int(ev.Arg) >= len(tbl) || tbl[ev.Arg] == nil {
					t.Errorf("%s/%d: pending %s event names slot %d of a %d-slot table", name, si, des.KindName(ev.Kind), ev.Arg, len(tbl))
				}
			}
		}
	}
	for k := uint16(1); k < des.NumKinds; k++ {
		if des.KindName(k) != "" && !scheduled[k] {
			t.Errorf("no session scheduled a %s event", des.KindName(k))
		}
	}
}

// TestSnapshotRecordOrderMatchesTable reads real blobs with nothing but
// snap.Reader.Next and compares the record tags with the sequence the
// record table predicts — for the static one-shard case against a
// hand-spelled sequence too, so the table itself is pinned.
func TestSnapshotRecordOrderMatchesTable(t *testing.T) {
	static := shardBaseConfig(7)
	planes := faultBaseConfig(29) // churn + faults, plus reopt below
	planes.Reopt = ReoptConfig{Every: 250 * des.Millisecond, MinImprove: 0.02, MaxMoves: 2}
	sharded := faultBaseConfig(29)
	sharded.Shards = 4
	perShard := []uint16{recComponents, recEngine, recStats}
	for name, tc := range map[string]struct {
		cfg  Config
		want []uint16 // nil: only the table's prediction is checked
	}{
		"static": {static, slices.Concat([]uint16{recMeta}, slices.Repeat([]uint16{recGroup}, 6),
			[]uint16{recHosts, recSources}, perShard, []uint16{recCoord, recEnd})},
		"churn+fault+reopt": {planes, slices.Concat([]uint16{recMeta}, slices.Repeat([]uint16{recGroup}, 6),
			[]uint16{recHosts, recSources, recControl, recFaults, recReopt}, perShard, []uint16{recCoord, recEnd})},
		"4-shard": {cfg: sharded},
	} {
		s := NewSession(tc.cfg)
		s.Start()
		s.RunTo(des.Second)
		blob, err := s.Snapshot()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var predicted []uint16
		(&codec{s: s}).walk(func(rec *record, _ int) error {
			predicted = append(predicted, rec.tag)
			return nil
		})
		r, _, err := snap.NewReader(blob)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got []uint16
		for tag, ok := r.Next(); ok; tag, ok = r.Next() {
			got = append(got, tag)
			for r.Remaining() > 0 {
				r.U8()
			}
		}
		if !slices.Equal(got, predicted) {
			t.Errorf("%s: blob records %v, table predicts %v", name, got, predicted)
		}
		if tc.want != nil && !slices.Equal(got, tc.want) {
			t.Errorf("%s: blob records %v, want %v", name, got, tc.want)
		}
		if name == "4-shard" {
			if n := s.Shards(); n < 2 || len(got) != 1+6+2+2+3*n+2 {
				t.Errorf("4-shard: %d records on %d shards", len(got), n)
			}
		}
	}
}

// BenchmarkCheckpoint measures one snapshot+restore round trip on a
// mid-size churn workload, for the overhead table in EXPERIMENTS.md §4.
func BenchmarkCheckpoint(b *testing.B) {
	cfg := churnConfig(SchemeSRL, 41)
	s := NewSession(cfg)
	s.Start()
	s.RunTo(des.Time(cfg.Duration) / 2)
	blob, err := s.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(blob)), "bytes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Snapshot(); err != nil {
			b.Fatal(err)
		}
		if _, err := Restore(cfg, blob); err != nil {
			b.Fatal(err)
		}
	}
}
