package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/scenario"
)

// TestShardCensusByKind pins the executed-event census of one quick
// waxman-zipf-64 cell (150 hosts, 64 Zipf groups, load 0.8, 3 s, seed 1),
// by event kind, at one shard and at two. The census is a function of
// the engine's event structure alone, so a change that brings a timer per
// regulator back — or adds any per-packet event — fails here, not in a
// later benchmark round: duty-cycle edges are two per clock per period,
// whatever the number of regulators.
func TestShardCensusByKind(t *testing.T) {
	sc := scenario.MustLookup("waxman-zipf-64").Quick()
	for _, tc := range []struct {
		shards    int
		delivered uint64
		want      map[uint16]uint64
	}{
		{1, 75_348, map[uint16]uint64{
			des.KindMuxDone: 75_348, des.KindFlight: 75_348, des.KindSRLDone: 12_324,
			des.KindSRLOn: 8_576, des.KindSRLOff: 8_576,
			des.KindSrcCycle: 64, des.KindSrcTick: 9_536,
		}},
		// Two shards: a delivery that crosses the boundary is a cross-shard
		// release (KindCrossShard) instead of a flight, and a (group,
		// capacity) pair forwarded on both shards has a clock on each.
		{2, 75_348, map[uint16]uint64{
			des.KindMuxDone: 75_348, des.KindFlight: 38_220, des.KindCrossShard: 37_128, des.KindSRLDone: 12_324,
			des.KindSRLOn: 8_978, des.KindSRLOff: 8_978,
			des.KindSrcCycle: 64, des.KindSrcTick: 9_536,
		}},
	} {
		cfg, err := sc.SessionConfig(sc.Combos[0], sc.Loads[0], 1, core.SeedOpt{}, 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Shards = tc.shards
		s := core.NewSession(cfg)
		res := s.Run()
		got := map[uint16]uint64{}
		var total, edges uint64
		for _, shard := range s.ShardAccount().ByKind {
			for k, n := range shard {
				if n > 0 {
					got[uint16(k)] += n
				}
				total += n
			}
			edges += shard[des.KindSRLOn] + shard[des.KindSRLOff]
		}
		t.Logf("shards=%d: %d deliveries, %d events (%.3f per delivery), %d clock edges", res.Shards, res.Delivered, total,
			float64(total)/float64(res.Delivered), edges)
		if res.Shards != tc.shards || res.Delivered != tc.delivered {
			t.Errorf("shards=%d: ran on %d shards and delivered %d, want %d", tc.shards, res.Shards, res.Delivered, tc.delivered)
		}
		for k := uint16(0); k < des.NumKinds; k++ {
			if got[k] != tc.want[k] {
				t.Errorf("shards=%d: %d %s events, want %d", tc.shards, got[k], des.KindName(k), tc.want[k])
			}
		}
	}
}

// TestShardCeiling pins the sharded engine's scaling ceiling — Σ events ÷
// Σ per-epoch busiest-shard events, Result.ShardCeiling — for the quick
// waxman-zipf-64 cell at two, four and eight shards. It is a function of
// per-shard event counts and the epoch schedule alone, so a change that
// moves what an epoch is, or which shard an event runs on, moves it; one
// that only moves who executes what does not. It can be no lower than 1
// and no higher than total events ÷ the busiest shard's whole-run events.
func TestShardCeiling(t *testing.T) {
	sc := scenario.MustLookup("waxman-zipf-64").Quick()
	for _, tc := range []struct {
		shards int
		want   float64
	}{{2, 1.266125871}, {4, 1.679479079}, {8, 1.934424252}} {
		cfg, err := sc.SessionConfig(sc.Combos[0], sc.Loads[0], 1, core.SeedOpt{}, 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Shards = tc.shards
		s := core.NewSession(cfg)
		res := s.Run()
		var total, busiest uint64
		for _, n := range s.ShardAccount().Events {
			total += n
			busiest = max(busiest, n)
		}
		got := res.ShardCeiling()
		t.Logf("shards=%d: ceiling %.9f (stall %.6f, %d epochs, %d events, busiest shard %d)",
			res.Shards, got, res.StallShare, res.Epochs, total, busiest)
		if res.Shards != tc.shards {
			t.Fatalf("ran on %d shards, want %d", res.Shards, tc.shards)
		}
		if got < 1 || got > float64(total)/float64(busiest) {
			t.Errorf("shards=%d: ceiling %.9f outside [1, %.6f]", tc.shards, got, float64(total)/float64(busiest))
		}
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("shards=%d: ceiling %.9f, want %.9f", tc.shards, got, tc.want)
		}
	}
	if one := (core.Result{Shards: 1}).ShardCeiling(); one != 1 {
		t.Errorf("one shard: ceiling %v, want 1", one)
	}
}
