package core

import (
	"runtime"
	"testing"

	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// shardBaseConfig is the 240-host base of most of the identity matrix's
// fixtures (identity_test.go): six groups, full and partial, on a 24-router
// Waxman underlay.
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
	if got.Shards != 1 || got.Epochs != 0 || got.CrossShardMsgs != 0 || got.StallShare != 0 {
		t.Errorf("one-shard run reports shards=%d epochs=%d msgs=%d stall=%v, want 1/0/0/0",
			got.Shards, got.Epochs, got.CrossShardMsgs, got.StallShare)
	}
	if err := SameRun(want, got, 0); err != nil {
		t.Fatalf("run diverged from Shards=0: %v", err)
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
	cfg.Shards = EnvShards(t)
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
