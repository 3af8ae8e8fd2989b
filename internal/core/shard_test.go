package core

import (
	"math"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// testShardCount honours the WDCSIM_SHARDS env var (the CI shard matrix);
// default 4.
func testShardCount(t testing.TB) int {
	if v := os.Getenv("WDCSIM_SHARDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad WDCSIM_SHARDS=%q", v)
		}
		return n
	}
	return 4
}

func shardBaseConfig(seed uint64) Config {
	return Config{
		NumHosts:  240,
		Mix:       traffic.MixAudio,
		Load:      0.8,
		Scheme:    SchemeSRL,
		Duration:  3 * des.Second,
		Seed:      seed,
		Topology:  topo.Waxman{N: 24},
		NumGroups: 6,
		Groups: []GroupSpec{
			// Mixed full and partial membership; sources spread out.
			{Source: 0},
			{Source: 5},
			{Source: 17, Members: rangeMembers(10, 120)},
			{Source: 60, Members: rangeMembers(40, 200)},
			{Source: 100, Members: rangeMembers(100, 240)},
			{Source: 3, Members: rangeMembers(0, 80)},
		},
	}
}

func rangeMembers(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// assertResultsEquivalent compares the physics-level outcome of two runs:
// identical deliveries, losses, per-group worst-case delays (bit for bit),
// and tree layers. MeanDelay is compared loosely — the Welford merge
// changes float summation order, not the sample set.
func assertResultsEquivalent(t *testing.T, label string, seqr, shr Result) {
	t.Helper()
	if seqr.Delivered != shr.Delivered {
		t.Errorf("%s: delivered %d (sequential) vs %d (sharded)", label, seqr.Delivered, shr.Delivered)
	}
	if seqr.Lost != shr.Lost {
		t.Errorf("%s: lost %d vs %d", label, seqr.Lost, shr.Lost)
	}
	for g := range seqr.PerGroupWDB {
		if seqr.PerGroupWDB[g] != shr.PerGroupWDB[g] {
			t.Errorf("%s: group %d WDB %.17g vs %.17g", label, g, seqr.PerGroupWDB[g], shr.PerGroupWDB[g])
		}
		if seqr.PerGroupLost[g] != shr.PerGroupLost[g] {
			t.Errorf("%s: group %d lost %d vs %d", label, g, seqr.PerGroupLost[g], shr.PerGroupLost[g])
		}
	}
	if seqr.WDB != shr.WDB {
		t.Errorf("%s: WDB %.17g vs %.17g", label, seqr.WDB, shr.WDB)
	}
	if seqr.Layers != shr.Layers {
		t.Errorf("%s: layers %d vs %d", label, seqr.Layers, shr.Layers)
	}
	if seqr.Joins != shr.Joins || seqr.Leaves != shr.Leaves ||
		seqr.Regrafts != shr.Regrafts || seqr.RejectedEvents != shr.RejectedEvents {
		t.Errorf("%s: control counters (%d,%d,%d,%d) vs (%d,%d,%d,%d)", label,
			seqr.Joins, seqr.Leaves, seqr.Regrafts, seqr.RejectedEvents,
			shr.Joins, shr.Leaves, shr.Regrafts, shr.RejectedEvents)
	}
	if len(seqr.WindowMax) != len(shr.WindowMax) {
		t.Errorf("%s: window series length %d vs %d", label, len(seqr.WindowMax), len(shr.WindowMax))
	} else {
		for i := range seqr.WindowMax {
			if seqr.WindowMax[i] != shr.WindowMax[i] {
				t.Errorf("%s: window %d max %.17g vs %.17g", label, i, seqr.WindowMax[i], shr.WindowMax[i])
			}
		}
	}
	if seqr.Delivered > 0 && math.Abs(seqr.MeanDelay-shr.MeanDelay) > 1e-9*math.Max(1, seqr.MeanDelay) {
		t.Errorf("%s: mean delay %v vs %v beyond merge tolerance", label, seqr.MeanDelay, shr.MeanDelay)
	}
	if seqr.CutLost != shr.CutLost || seqr.FaultLost != shr.FaultLost {
		t.Errorf("%s: fault losses (cut %d, fault %d) vs (cut %d, fault %d)", label,
			seqr.CutLost, seqr.FaultLost, shr.CutLost, shr.FaultLost)
	}
	if !reflect.DeepEqual(seqr.Faults, shr.Faults) {
		t.Errorf("%s: fault outcomes diverged:\n  sequential %+v\n  sharded    %+v", label, seqr.Faults, shr.Faults)
	}
}

// TestShardedMatchesSequential is the core differential test: a sharded
// run must reproduce the one-shard run's physics exactly — same
// deliveries, same losses, same per-group worst-case delays. At
// WDCSIM_SHARDS=1 the subject is the oracle's own configuration, and the
// test pins what one shard reports instead.
func TestShardedMatchesSequential(t *testing.T) {
	for _, scheme := range []Scheme{SchemeSRL, SchemeSigmaRho} {
		cfg := shardBaseConfig(11)
		cfg.Scheme = scheme
		seqr := Run(cfg)
		cfg.Shards = testShardCount(t)
		s := NewSession(cfg)
		if want := min(cfg.Shards, 2); s.Shards() < want {
			t.Fatalf("partition degenerated to %d shards", s.Shards())
		}
		if la := s.Lookahead(); (la > 0) != (s.Shards() > 1) {
			t.Fatalf("lookahead %v on %d shards", la, s.Shards())
		}
		shr := s.Run()
		if seqr.Delivered == 0 {
			t.Fatal("no deliveries — test workload is broken")
		}
		assertResultsEquivalent(t, scheme.String(), seqr, shr)
		if cfg.Shards == 1 {
			assertOneShardDiagnostics(t, shr)
		}
	}
}

// assertOneShardDiagnostics pins a one-shard Result's sharding fields: the
// coordinator's own epoch bookkeeping must not leak into it.
func assertOneShardDiagnostics(t *testing.T, res Result) {
	t.Helper()
	if res.Shards != 1 || res.Epochs != 0 || res.CrossShardMsgs != 0 || res.StallShare != 0 {
		t.Errorf("one-shard run reports shards=%d epochs=%d msgs=%d stall=%v, want 1/0/0/0",
			res.Shards, res.Epochs, res.CrossShardMsgs, res.StallShare)
	}
}

// TestShardedMatchesSequentialUnderChurn adds membership events: grafts,
// prunes, repairs, and regulator teardowns must apply at quiesced
// barriers and reproduce the sequential outcome exactly.
func TestShardedMatchesSequentialUnderChurn(t *testing.T) {
	cfg := shardBaseConfig(13)
	cfg.WindowSec = 0.5
	cfg.Events = []MembershipEvent{
		{At: des.Seconds(0.4), Group: 2, Host: 130, Join: true},
		{At: des.Seconds(0.4), Group: 3, Host: 10, Join: true},
		{At: des.Seconds(0.7), Group: 2, Host: 30},
		{At: des.Seconds(1.1), Group: 4, Host: 150},
		{At: des.Seconds(1.1), Group: 2, Host: 130},
		{At: des.Seconds(1.6), Group: 5, Host: 200, Join: true}, // out of member range: join anyway
		{At: des.Seconds(2.0), Group: 3, Host: 60},
		{At: des.Seconds(9.0), Group: 2, Host: 11}, // beyond duration: dropped
	}
	seqr := Run(cfg)
	if seqr.Joins == 0 || seqr.Leaves == 0 {
		t.Fatalf("churn workload inert: %+v", seqr)
	}
	cfg.Shards = testShardCount(t)
	shr := Run(cfg)
	assertResultsEquivalent(t, "churn", seqr, shr)
}

// TestShardedAdaptiveMatchesSequential covers the adaptive controller's
// per-host tickers and mode switches under sharding.
func TestShardedAdaptiveMatchesSequential(t *testing.T) {
	cfg := shardBaseConfig(17)
	cfg.Scheme = SchemeAdaptive
	cfg.Duration = 2 * des.Second
	seqr := Run(cfg)
	cfg.Shards = testShardCount(t)
	shr := Run(cfg)
	assertResultsEquivalent(t, "adaptive", seqr, shr)
	if seqr.ModeSwitches != shr.ModeSwitches {
		t.Errorf("mode switches %d vs %d", seqr.ModeSwitches, shr.ModeSwitches)
	}
}

// TestShardedDeterministicRepeatedRuns pins the fixed-N determinism
// contract: two sharded runs of the same config are identical in every
// field, including the merge-order-sensitive ones.
func TestShardedDeterministicRepeatedRuns(t *testing.T) {
	cfg := shardBaseConfig(19)
	cfg.Shards = testShardCount(t)
	cfg.Events = []MembershipEvent{
		{At: des.Seconds(0.5), Group: 2, Host: 130, Join: true},
		{At: des.Seconds(1.2), Group: 2, Host: 30},
	}
	a := Run(cfg)
	for i := 0; i < 3; i++ {
		b := Run(cfg)
		if math.Float64bits(a.WDB) != math.Float64bits(b.WDB) ||
			math.Float64bits(a.MeanDelay) != math.Float64bits(b.MeanDelay) ||
			a.Delivered != b.Delivered || a.Lost != b.Lost {
			t.Fatalf("run %d diverged: %+v vs %+v", i, a, b)
		}
		for g := range a.PerGroupWDB {
			if math.Float64bits(a.PerGroupWDB[g]) != math.Float64bits(b.PerGroupWDB[g]) {
				t.Fatalf("run %d group %d WDB bits diverged", i, g)
			}
		}
	}
}

// TestShardedDegeneratesToOneShard pins the one-shard case: Shards<=1
// reports one shard, no lookahead and no coordinator diagnostics, and
// matches the plain run.
func TestShardedDegeneratesToOneShard(t *testing.T) {
	cfg := Config{NumHosts: 40, Mix: traffic.MixAudio, Load: 0.6, Scheme: SchemeSRL,
		Duration: des.Second, Seed: 3}
	want := Run(cfg)
	cfg.Shards = 1
	s := NewSession(cfg)
	if s.Shards() != 1 {
		t.Fatalf("runs on %d shards", s.Shards())
	}
	if s.Lookahead() != 0 {
		t.Fatalf("one shard reports lookahead %v", s.Lookahead())
	}
	got := s.Run()
	assertOneShardDiagnostics(t, got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("run diverged from Shards=0: %+v vs %+v", got, want)
	}
}

// TestShardedStaticEqualsShards1Bits: for a static session the sharded
// per-group maxima must be bit-identical to the sequential ones (the same
// packets see the same delays; only observation is distributed).
func TestShardedStaticEqualsShards1Bits(t *testing.T) {
	cfg := Config{NumHosts: 120, Mix: traffic.MixAudio, Load: 0.9, Scheme: SchemeSigmaRho,
		Duration: 2 * des.Second, Seed: 23, NumGroups: 4}
	seqr := Run(cfg)
	cfg.Shards = testShardCount(t)
	shr := Run(cfg)
	for g := range seqr.PerGroupWDB {
		if math.Float64bits(seqr.PerGroupWDB[g]) != math.Float64bits(shr.PerGroupWDB[g]) {
			t.Fatalf("group %d WDB bits %016x vs %016x", g,
				math.Float64bits(seqr.PerGroupWDB[g]), math.Float64bits(shr.PerGroupWDB[g]))
		}
	}
	if seqr.Delivered != shr.Delivered {
		t.Fatalf("delivered %d vs %d", seqr.Delivered, shr.Delivered)
	}
}

// TestPairLookaheadWidensEpochs pins why the matrix exists, structurally:
// on a transit-stub underlay, shards separated by the transit core get
// pair lookaheads strictly wider than the matrix minimum (which a single
// intra-stub short hop sets). That the coordinator turns such slack into
// fewer epochs with an identical firing order is pinned in des
// (TestPairBoundsRunFewerEpochs).
func TestPairLookaheadWidensEpochs(t *testing.T) {
	cfg := Config{
		NumHosts:  240,
		Mix:       traffic.MixAudio,
		Load:      0.8,
		Scheme:    SchemeSRL,
		Duration:  2 * des.Second,
		Seed:      41,
		Topology:  topo.TransitStub{Transits: 4, StubsPerTransit: 3, StubSize: 2},
		NumGroups: 4,
	}
	cfg.Shards = testShardCount(t)
	if cfg.Shards < 2 {
		t.Skip("needs >= 2 shards")
	}
	s := NewSession(cfg)
	if s.Shards() < 2 {
		t.Fatalf("partition degenerated to %d shards", s.Shards())
	}
	mat, ok := netsim.LookaheadMatrix(s.sub.net, s.owner)
	if !ok {
		t.Fatal("no cross-shard pair in matrix")
	}
	wider := 0
	for i := range mat {
		for j := range mat[i] {
			if i == j {
				continue
			}
			if mat[i][j] < s.Lookahead() {
				t.Fatalf("la[%d][%d]=%v below the matrix min %v", i, j, mat[i][j], s.Lookahead())
			}
			if mat[i][j] > s.Lookahead() {
				wider++
			}
		}
	}
	if wider == 0 {
		t.Fatal("no pair lookahead strictly wider than the minimum — topology does not exercise the matrix")
	}
}

// TestAutoTuneShardsOneCore pins the tuner's answer where sharding has no
// core to offer: under GOMAXPROCS 1 it is 1, without a probe run, whatever
// candidates the caller names; and with cores it never proposes a count
// above GOMAXPROCS.
func TestAutoTuneShardsOneCore(t *testing.T) {
	cfg := shardBaseConfig(3)
	cfg.Duration = des.Second
	func() {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		if got := DefaultShardCandidates(); len(got) != 0 {
			t.Errorf("default candidates on one core = %v, want none", got)
		}
		for _, cands := range [][]int{nil, {2, 4}} {
			if n, probes := AutoTuneShards(cfg, cands, 0); n != 1 || probes != nil {
				t.Errorf("one core, candidates %v: picked %d after probes %+v, want 1 and none", cands, n, probes)
			}
		}
	}()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	n, probes := AutoTuneShards(cfg, []int{2, 4, 8}, 0)
	if n != 2 || len(probes) != 1 || probes[0].Shards != 2 {
		t.Errorf("two cores: picked %d after probes %+v, want 2 after probing 2 alone", n, probes)
	}
}
