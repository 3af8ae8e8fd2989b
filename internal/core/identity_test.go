package core_test

import (
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/scenario"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// The identity matrix (DESIGN.md §11.4). The reproduction is worth its
// measured worst-case delays only if they do not depend on how the engine
// executes a run. Each fixture runs straight through once on one shard, on
// a cold substrate cache, and every transformation of it must reproduce
// that baseline by core.SameRun, with only the fields its Norm names set
// aside. A transformation is a column, one top-level test, and a fixture a
// row of it, so `go test -run` picks columns as the CI shard and fault legs do:
//
//	column                                      transformation               sets aside
//	TestShardedDeterministicRepeatedRuns        the Shards = n run, again    nothing
//	TestShardedMatchesSequential                Shards = n (WDCSIM_SHARDS)   NormShards
//	TestShardedMatchesSequentialPerFaultKind    Shards = n, one fault kind   NormShards
//	TestCheckpointRestoreBitIdentical           checkpoint at T/2            NormRestore
//	TestCheckpointChained                       five chained checkpoints     NormRestore
//	TestCheckpointUnalignedInstant              a checkpoint at 1.234567 s   NormRestore
//	TestCachedSessionRunsIdentical              a warm substrate cache       nothing (its restore: NormRestore)
//
// The checkpoint and warm columns run at one shard and at n, NormShards
// added at n. The per-fault-kind column's rows apply one fault kind each,
// so a determinism break pins to a kind. The sweep columns are in internal/harness/identity_test.go;
// harness.TestPins is the fixed column. The double-tie row is the one
// recorded divergence (DESIGN.md §8): bit-stable per shard count, and its
// Shards = n rows fail the day it equals the one-shard run.

// A column is the set of fixtures that are rows of one transformation.
type column uint8

const (
	colRepeat column = 1 << iota
	colShards
	colRestore
	colChained
	colUnaligned
	colWarm
	colKinds
	colAll = colKinds - 1 // every column but the per-fault-kind one
)

// A plane is a control plane a fixture's baseline must show at work: a row
// whose plane did nothing compares two runs in which nothing happened.
type plane uint8

const (
	churned plane = 1 << iota // joins and leaves applied
	reopted                   // re-optimization passes evaluated
	moved                     // re-optimization moves applied
	faulted                   // fault outcomes reported
)

// fixture is a row of the config columns: its Config, the columns it is a
// row of, the planes its baseline must show, and, once a column asks, its
// baseline and its Shards = n runs.
type fixture struct {
	name string
	cfg  core.Config
	cols column
	live plane
	full bool  // a full-scale builtin cell: skipped under -short
	ns   []int // the Shards = n counts, when not WDCSIM_SHARDS alone

	// diverges records that the Shards = n runs differ from the baseline
	// (the double-tie row).
	diverges bool

	once    sync.Once
	base    core.Result
	sharded map[int]core.Result // n → the run at n shards
}

// baseline is the fixture's straight one-shard run, on a cold substrate
// cache; every column of the fixture compares against it.
func (f *fixture) baseline(t *testing.T) core.Result {
	t.Helper()
	f.once.Do(func() {
		core.FlushSubstrateCache()
		f.base = core.Run(f.cfg)
	})
	b := f.base
	for _, p := range []struct {
		plane
		inert bool
		what  string
	}{
		{0, b.Delivered == 0, "delivered nothing"},
		{churned, b.Joins == 0 || b.Leaves == 0, "applied no joins or no leaves"},
		{reopted, b.Reopts+b.ReoptRejected == 0, "evaluated no re-optimization pass"},
		{moved, b.ReoptMoves == 0, "moved no member"},
		{faulted, len(b.Faults) == 0, "reported no fault"},
	} {
		if p.inert && (p.plane == 0 || f.live&p.plane != 0) {
			t.Fatalf("inert baseline: it %s — the fixture is broken", p.what)
		}
	}
	return b
}

// shardsN returns the shard counts of the fixture's Shards = n rows.
func (f *fixture) shardsN(t *testing.T) []int {
	if f.ns != nil {
		return f.ns
	}
	return []int{core.EnvShards(t)}
}

// shardedAt is the fixture's run at n shards, made once for the Shards = n
// and the repeat columns.
func (f *fixture) shardedAt(n int) core.Result {
	if res, ok := f.sharded[n]; ok {
		return res
	}
	cfg := f.cfg
	cfg.Shards = n
	if f.sharded == nil {
		f.sharded = map[int]core.Result{}
	}
	f.sharded[n] = core.Run(cfg)
	return f.sharded[n]
}

// same fails the row when got differs from want beyond n.
func same(t *testing.T, want, got core.Result, n core.Norm) {
	t.Helper()
	if err := core.SameRun(want, got, n); err != nil {
		t.Fatalf("diverged from the straight one-shard run: %v", err)
	}
}

// checkpointed runs cfg to its end through a checkpoint at each instant:
// run to it, snapshot, restore a fresh session from the bytes, go on.
func checkpointed(t *testing.T, cfg core.Config, at ...des.Time) core.Result {
	t.Helper()
	s := core.NewSession(cfg)
	s.Start()
	for _, ckpt := range at {
		s.RunTo(ckpt)
		blob, err := s.Snapshot()
		if err != nil {
			t.Fatalf("snapshot at %v: %v", ckpt, err)
		}
		if s, err = core.Restore(cfg, blob); err != nil {
			t.Fatalf("restore at %v: %v", ckpt, err)
		}
	}
	return s.Finish()
}

// equalStar is an underlay whose host distances take three values only —
// on one router, across a spoke, across two — with a hub router, 1 ms
// spokes and every access delay WireDelay/2, fixed as topo.Wire fixes it
// on its one router. Phase-locked sources behind identical uplinks then
// land cross-shard arrivals on one instant with one scheduling time: the
// double tie.
type equalStar struct{ N int }

func (equalStar) Name() string { return "equal-star" }

func (s equalStar) Build(uint64) *topo.Graph {
	g := topo.NewGraph(s.N)
	for r := 1; r < s.N; r++ {
		g.AddEdge(0, topo.NodeID(r), des.Millisecond)
	}
	// Graph keeps the fixed access delay unexported: topo.Wire alone sets it.
	access := reflect.ValueOf(g).Elem().FieldByName("access")
	reflect.NewAt(access.Type(), unsafe.Pointer(access.UnsafeAddr())).Elem().SetInt(int64(topo.WireDelay / 2))
	return g
}

// configFixtures are the rows of the config columns.
func configFixtures(t *testing.T) []*fixture {
	static := core.ShardBaseConfig(7)
	churn := core.ChurnConfig(core.SchemeSRL, 13)
	fault := core.FaultBaseConfig(29)
	reopt := core.ChurnConfig(core.SchemeSigmaRho, 17)
	reopt.Reopt = core.ReoptConfig{Every: 250 * des.Millisecond, MinImprove: 0.02, MaxMoves: 2}
	adaptive := core.ShardBaseConfig(37)
	adaptive.Scheme = core.SchemeAdaptive
	vbr := core.ShardBaseConfig(41)
	vbr.Workload = core.WorkloadVBR
	vbr.Mix = traffic.MixHetero
	// (σ, ρ, λ) regulators wait out vacations on their clocks around T/2.
	vacation := adaptive
	vacation.Load = 0.95
	// The 1.8 s cut never heals: the run ends inside the open partition.
	open := core.FaultBaseConfig(29)
	open.Faults = open.Faults[:len(open.Faults)-1]
	planes := core.FaultBaseConfig(29)
	planes.Reopt = reopt.Reopt
	oneHop := core.OneHop(core.Config{Mix: traffic.MixVideo, Load: 0.8, Scheme: core.SchemeSRL,
		Duration: 7 * des.Second, Seed: 11})
	fs := []*fixture{
		{name: "static", cfg: static, cols: colAll},
		{name: "churn", cfg: churn, cols: colAll, live: churned},
		{name: "fault", cfg: fault, cols: colAll, live: faulted},
		{name: "reopt-churn", cfg: reopt, cols: colAll, live: churned | reopted},
		{name: "adaptive", cfg: adaptive, cols: colAll},
		{name: "vbr", cfg: vbr, cols: colAll},
		{name: "vacation", cfg: vacation, cols: colAll},
		{name: "uplinks", cfg: core.UplinkConfig(), cols: colRepeat | colShards},
		// The one-hop shape (two hosts on a Wire) has one router to shard,
		// and its repeats are tests of their own.
		{name: "one-hop", cfg: oneHop, cols: colAll &^ colShards &^ colRepeat},
		{name: "fault-open-partition", cfg: open, cols: colShards | colChained, live: faulted},
		{name: "fault-parked-roots", cfg: core.ParkedRootsConfig(t), cols: colShards | colRestore | colChained, live: faulted},
		// Every tree-writing plane at once, for the warm column: the faults'
		// mass leave and join churn, and re-optimization moves members.
		{name: "fault-reopt", cfg: planes, cols: colWarm, live: churned | moved | faulted},
	}

	// The per-fault-kind rows.
	half := make([]bool, 24)
	for r := range 12 {
		half[r] = true
	}
	outage := core.FaultEvent{At: des.Seconds(0.6), Kind: core.FaultOutage, ID: 0, Group: -1, Hosts: core.RangeMembers(40, 48)}
	for _, k := range []struct {
		name   string
		faults []core.FaultEvent
	}{
		{"outage", []core.FaultEvent{outage}},
		{"outage+restore", []core.FaultEvent{outage,
			{At: des.Seconds(1.6), Kind: core.FaultRestore, ID: 0, Group: -1, Hosts: core.RangeMembers(40, 48)}}},
		{"partition+heal", []core.FaultEvent{
			{At: des.Seconds(0.8), Kind: core.FaultPartition, ID: 0, Group: -1, Side: half},
			{At: des.Seconds(1.7), Kind: core.FaultHeal, ID: 0, Group: -1}}},
		{"mass_leave", []core.FaultEvent{{At: des.Seconds(0.9), Kind: core.FaultMassLeave, Group: 3, Hosts: core.RangeMembers(70, 90)}}},
		{"mass_join", []core.FaultEvent{{At: des.Seconds(0.9), Kind: core.FaultMassJoin, Group: 2, Hosts: core.RangeMembers(150, 170)}}},
	} {
		cfg := core.ShardBaseConfig(31)
		cfg.WindowSec = 0.5
		cfg.Faults = k.faults
		fs = append(fs, &fixture{name: k.name, cfg: cfg, cols: colKinds, live: faulted})
	}

	// The double tie: six groups of identical extremal audio flows, their
	// sources on five routers of an equal-latency star.
	tie := core.Config{NumHosts: 40, Mix: traffic.MixAudio, Load: 0.9, Scheme: core.SchemeSigmaRho,
		Duration: des.Second, Seed: 3, Topology: equalStar{N: 5}, NumGroups: 6}
	fs = append(fs, &fixture{name: "double-tie", cfg: tie, cols: colRepeat | colShards, ns: []int{2, 4}, diverges: true})

	// The full-scale builtin cells.
	for _, c := range []struct {
		name string
		d    float64
		live plane
	}{
		{"churn-waxman-16", 2, churned},
		{"reopt-churn-waxman-16", 2, churned | reopted},
		{"outage-waxman-16", 3, faulted},
		{"epoch-churn-waxman-16", 3, churned | faulted},
	} {
		sc := scenario.MustLookup(c.name)
		cfg, err := sc.SessionConfig(sc.Combos[0], 0.8, 1, core.UseSeed(2), des.Duration(des.Seconds(c.d)), nil, sc.Groups(1))
		if err != nil {
			t.Fatal(err)
		}
		fs = append(fs, &fixture{name: c.name, cfg: cfg, cols: colShards, live: c.live, full: true})
	}
	return fs
}

var (
	fixturesOnce sync.Once
	fixtures     []*fixture
)

// rows runs fn as one subtest per fixture that is a row of col.
func rows(t *testing.T, col column, fn func(t *testing.T, f *fixture)) {
	fixturesOnce.Do(func() { fixtures = configFixtures(t) })
	for _, f := range fixtures {
		if f.cols&col == 0 {
			continue
		}
		t.Run(f.name, func(t *testing.T) {
			if f.full && testing.Short() {
				t.Skip("full-scale cell; skipped under -short")
			}
			fn(t, f)
		})
	}
}

// atShards runs fn once on one shard and once at n (subtests sequential
// and sharded), with the comparator's normalisation for each.
func atShards(t *testing.T, base core.Norm, fn func(t *testing.T, shards int, n core.Norm)) {
	t.Run("sequential", func(t *testing.T) { fn(t, 1, base) })
	t.Run("sharded", func(t *testing.T) { fn(t, core.EnvShards(t), base|core.NormShards) })
}

func TestShardedDeterministicRepeatedRuns(t *testing.T) {
	rows(t, colRepeat, func(t *testing.T, f *fixture) {
		for _, n := range f.shardsN(t) {
			cfg := f.cfg
			cfg.Shards = n
			if err := core.SameRun(f.shardedAt(n), core.Run(cfg), 0); err != nil {
				t.Fatalf("Shards = %d: a repeated run diverged: %v", n, err)
			}
		}
	})
}

func TestShardedMatchesSequential(t *testing.T) {
	rows(t, colShards, matchesSequential)
}

func TestShardedMatchesSequentialPerFaultKind(t *testing.T) {
	rows(t, colKinds, matchesSequential)
}

// matchesSequential is the Shards = n transformation of a row.
func matchesSequential(t *testing.T, f *fixture) {
	base := f.baseline(t)
	for _, n := range f.shardsN(t) {
		cfg := f.cfg
		cfg.Shards = n
		s := core.NewSession(cfg)
		if s.Shards() < min(n, 2) {
			t.Fatalf("Shards = %d: the partition degenerated to %d shards", n, s.Shards())
		}
		if la := s.Lookahead(); (la > 0) != (s.Shards() > 1) {
			t.Fatalf("lookahead %v on %d shards", la, s.Shards())
		}
		err := core.SameRun(base, f.shardedAt(n), core.NormShards)
		switch {
		case f.diverges && err == nil:
			t.Fatalf("Shards = %d: equals the one-shard run, recorded as diverging", n)
		case f.diverges:
			t.Logf("Shards = %d, as recorded: %v", n, err)
		case err != nil:
			t.Fatalf("Shards = %d: diverged from the straight one-shard run: %v", n, err)
		}
	}
}

func TestCheckpointRestoreBitIdentical(t *testing.T) {
	rows(t, colRestore, func(t *testing.T, f *fixture) {
		atShards(t, core.NormRestore, func(t *testing.T, shards int, n core.Norm) {
			cfg := f.cfg
			cfg.Shards = shards
			same(t, f.baseline(t), checkpointed(t, cfg, des.Time(cfg.Duration)/2), n)
		})
	})
}

func TestCheckpointChained(t *testing.T) {
	rows(t, colChained, func(t *testing.T, f *fixture) {
		atShards(t, core.NormRestore, func(t *testing.T, shards int, n core.Norm) {
			cfg := f.cfg
			cfg.Shards = shards
			d := des.Time(cfg.Duration)
			same(t, f.baseline(t), checkpointed(t, cfg, d/6, d/3, d/2, 2*d/3, 5*d/6), n)
		})
	})
}

func TestCheckpointUnalignedInstant(t *testing.T) {
	rows(t, colUnaligned, func(t *testing.T, f *fixture) {
		same(t, f.baseline(t), checkpointed(t, f.cfg, des.Seconds(1.234567)), core.NormRestore)
	})
}

// The warm column restores a session from the warm cache and runs it to
// its end first — churn, faults and re-optimization rewrite its trees —
// so that a session built on the same cache afterwards shows any write
// that reached the cache, its per-blueprint sharding included: at n shards
// the first run is the fixture's run at n, held to the baseline first.
func TestCachedSessionRunsIdentical(t *testing.T) {
	rows(t, colWarm, func(t *testing.T, f *fixture) {
		base := f.baseline(t)
		atShards(t, 0, func(t *testing.T, shards int, n core.Norm) {
			cfg := f.cfg
			cfg.Shards = shards
			first := base
			if shards > 1 {
				first = f.shardedAt(shards)
				same(t, base, first, n)
			}
			if err := core.SameRun(first, checkpointed(t, cfg, des.Time(cfg.Duration)/8), core.NormRestore); err != nil {
				t.Fatalf("the run restored from the warm cache diverged from the first run: %v", err)
			}
			if err := core.SameRun(first, core.Run(cfg), 0); err != nil {
				t.Fatalf("a session built after a restored one ran to its end diverged from the first run — the restore wrote through to the cache: %v", err)
			}
		})
	})
}
