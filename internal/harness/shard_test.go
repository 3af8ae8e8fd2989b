package harness

import (
	"math"
	"os"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/scenario"
)

func envShards(t testing.TB) int {
	if v := os.Getenv("WDCSIM_SHARDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad WDCSIM_SHARDS=%q", v)
		}
		return n
	}
	return 4
}

// TestShardDifferentialChurnWaxman16 is the acceptance differential: the
// full-scale churn-waxman-16 cell (2000 hosts, 16 Zipf groups, Poisson
// churn on a 64-router Waxman underlay) run sharded must agree with the
// shards=1 run on delivery count, loss count, and per-group max delay.
func TestShardDifferentialChurnWaxman16(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale differential; skipped under -short")
	}
	sc := scenario.MustLookup("churn-waxman-16")
	groups := sc.Groups(1)
	cfg, err := sc.SessionConfig(sc.Combos[0], 0.8, 1, core.UseSeed(2),
		2*des.Second, nil, groups)
	if err != nil {
		t.Fatal(err)
	}
	seqr := core.Run(cfg)
	if seqr.Delivered == 0 || seqr.Joins == 0 {
		t.Fatalf("inert workload: %+v", seqr)
	}
	cfg.Shards = envShards(t)
	shr := core.Run(cfg)

	if seqr.Delivered != shr.Delivered {
		t.Errorf("delivery count: %d sequential vs %d sharded", seqr.Delivered, shr.Delivered)
	}
	if seqr.Lost != shr.Lost {
		t.Errorf("loss count: %d sequential vs %d sharded", seqr.Lost, shr.Lost)
	}
	for g := range seqr.PerGroupWDB {
		if math.Float64bits(seqr.PerGroupWDB[g]) != math.Float64bits(shr.PerGroupWDB[g]) {
			t.Errorf("group %d max delay: %.17g vs %.17g", g, seqr.PerGroupWDB[g], shr.PerGroupWDB[g])
		}
	}
	if seqr.Joins != shr.Joins || seqr.Leaves != shr.Leaves || seqr.Regrafts != shr.Regrafts {
		t.Errorf("churn counters (%d,%d,%d) vs (%d,%d,%d)",
			seqr.Joins, seqr.Leaves, seqr.Regrafts, shr.Joins, shr.Leaves, shr.Regrafts)
	}
}

// TestShardDifferentialReoptChurnWaxman16 is the re-optimization
// acceptance differential: the full-scale reopt-churn-waxman-16 cell
// (2000 hosts, 16 Zipf groups, Poisson churn, 1 s measurement-driven
// rewire passes) run sharded must agree with the shards=1 run on
// delivery count, loss count, per-group max-delay bits, and the churn
// and re-optimization counters — re-optimization passes apply at
// coordinator quiesce barriers, so nothing may drift.
func TestShardDifferentialReoptChurnWaxman16(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale differential; skipped under -short")
	}
	sc := scenario.MustLookup("reopt-churn-waxman-16")
	groups := sc.Groups(1)
	cfg, err := sc.SessionConfig(sc.Combos[0], 0.8, 1, core.UseSeed(2),
		2*des.Second, nil, groups)
	if err != nil {
		t.Fatal(err)
	}
	seqr := core.Run(cfg)
	if seqr.Delivered == 0 || seqr.Joins == 0 {
		t.Fatalf("inert workload: %+v", seqr)
	}
	if seqr.Reopts+seqr.ReoptRejected == 0 {
		t.Fatal("no re-optimization passes evaluated")
	}
	cfg.Shards = envShards(t)
	shr := core.Run(cfg)

	if seqr.Delivered != shr.Delivered {
		t.Errorf("delivery count: %d sequential vs %d sharded", seqr.Delivered, shr.Delivered)
	}
	if seqr.Lost != shr.Lost {
		t.Errorf("loss count: %d sequential vs %d sharded", seqr.Lost, shr.Lost)
	}
	for g := range seqr.PerGroupWDB {
		if math.Float64bits(seqr.PerGroupWDB[g]) != math.Float64bits(shr.PerGroupWDB[g]) {
			t.Errorf("group %d max delay: %.17g vs %.17g", g, seqr.PerGroupWDB[g], shr.PerGroupWDB[g])
		}
	}
	if seqr.Joins != shr.Joins || seqr.Leaves != shr.Leaves || seqr.Regrafts != shr.Regrafts {
		t.Errorf("churn counters (%d,%d,%d) vs (%d,%d,%d)",
			seqr.Joins, seqr.Leaves, seqr.Regrafts, shr.Joins, shr.Leaves, shr.Regrafts)
	}
	if seqr.Reopts != shr.Reopts || seqr.ReoptMoves != shr.ReoptMoves || seqr.ReoptRejected != shr.ReoptRejected {
		t.Errorf("reopt counters (%d,%d,%d) vs (%d,%d,%d)",
			seqr.Reopts, seqr.ReoptMoves, seqr.ReoptRejected, shr.Reopts, shr.ReoptMoves, shr.ReoptRejected)
	}
}

// TestScenarioSweepStrategyOption forces a sweep onto one strategy and
// checks the override reaches the compiled configs: the forced sweep
// must equal a sweep of the scenario with the strategy set declaratively.
func TestScenarioSweepStrategyOption(t *testing.T) {
	sc := scenario.MustLookup("waxman-zipf-16").Quick()
	opts := Options{Seed: 5, Loads: []float64{0.8}, Duration: des.Second}
	forcedOpts := opts
	forcedOpts.Strategy = "greedy"
	forced, err := ScenarioSweep(sc, forcedOpts)
	if err != nil {
		t.Fatal(err)
	}
	declared := sc
	declared.Strategy = "greedy"
	declared.Combos = []scenario.Combo{
		{Scheme: "sigma-rho-lambda"},
		{Scheme: "sigma-rho"},
	}
	want, err := ScenarioSweep(declared, opts)
	if err != nil {
		t.Fatal(err)
	}
	if forced.Delivered != want.Delivered {
		t.Fatalf("forced sweep delivered %d, declarative %d", forced.Delivered, want.Delivered)
	}
	for i := range forced.Curves {
		for j := range forced.Loads {
			if math.Float64bits(forced.Curves[i].WDB.Y[j]) != math.Float64bits(want.Curves[i].WDB.Y[j]) {
				t.Fatalf("curve %d load %d: WDB %.17g vs %.17g",
					i, j, forced.Curves[i].WDB.Y[j], want.Curves[i].WDB.Y[j])
			}
		}
	}
	// The forced sweep must differ from the unforced dsct baseline —
	// otherwise the override silently did nothing.
	base, err := ScenarioSweep(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(base.Curves[0].WDB.Y[0]) == math.Float64bits(forced.Curves[0].WDB.Y[0]) {
		t.Fatal("greedy override produced the dsct result")
	}
}

// assertFaultRunsEquivalent compares the fault-plane view of two runs:
// delivery/loss counts, per-group max-delay bits, the window series, and
// the per-event outcomes (hosts touched, regrafts, attributed loss,
// recovery seconds) must be identical bit for bit.
func assertFaultRunsEquivalent(t *testing.T, seqr, shr core.Result) {
	t.Helper()
	if seqr.Delivered != shr.Delivered {
		t.Errorf("delivery count: %d sequential vs %d sharded", seqr.Delivered, shr.Delivered)
	}
	if seqr.Lost != shr.Lost {
		t.Errorf("loss count: %d sequential vs %d sharded", seqr.Lost, shr.Lost)
	}
	if seqr.CutLost != shr.CutLost || seqr.FaultLost != shr.FaultLost {
		t.Errorf("fault losses (cut %d, fault %d) vs (cut %d, fault %d)",
			seqr.CutLost, seqr.FaultLost, shr.CutLost, shr.FaultLost)
	}
	for g := range seqr.PerGroupWDB {
		if math.Float64bits(seqr.PerGroupWDB[g]) != math.Float64bits(shr.PerGroupWDB[g]) {
			t.Errorf("group %d max delay: %.17g vs %.17g", g, seqr.PerGroupWDB[g], shr.PerGroupWDB[g])
		}
	}
	if len(seqr.WindowMax) != len(shr.WindowMax) {
		t.Errorf("window series length %d vs %d", len(seqr.WindowMax), len(shr.WindowMax))
	} else {
		for i := range seqr.WindowMax {
			if math.Float64bits(seqr.WindowMax[i]) != math.Float64bits(shr.WindowMax[i]) {
				t.Errorf("window %d max %.17g vs %.17g", i, seqr.WindowMax[i], shr.WindowMax[i])
			}
		}
	}
	if len(seqr.Faults) != len(shr.Faults) {
		t.Fatalf("fault outcome count %d vs %d", len(seqr.Faults), len(shr.Faults))
	}
	for i := range seqr.Faults {
		a, b := seqr.Faults[i], shr.Faults[i]
		if a.Kind != b.Kind || a.Hosts != b.Hosts || a.Regrafts != b.Regrafts ||
			a.Lost != b.Lost || a.Unrecovered != b.Unrecovered ||
			math.Float64bits(a.RecoverySec) != math.Float64bits(b.RecoverySec) {
			t.Errorf("fault %d outcome diverged:\n  sequential %+v\n  sharded    %+v", i, a, b)
		}
	}
}

// TestShardDifferentialOutageWaxman16 is the fault-injection acceptance
// differential: the full-scale outage-waxman-16 cell (2000 hosts, 16 Zipf
// groups, a restored domain outage plus a healed partition) run sharded
// must agree with the shards=1 run bit for bit — fault events apply at
// coordinator quiesce barriers, packets crossing the cut are dropped
// shard-locally and merged in shard order, and recovery sentinels are
// single-writer, so nothing may drift.
func TestShardDifferentialOutageWaxman16(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale differential; skipped under -short")
	}
	sc := scenario.MustLookup("outage-waxman-16")
	groups := sc.Groups(1)
	cfg, err := sc.SessionConfig(sc.Combos[0], 0.8, 1, core.UseSeed(2),
		3*des.Second, nil, groups)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Faults) == 0 {
		t.Fatal("no fault events compiled")
	}
	seqr := core.Run(cfg)
	if seqr.Delivered == 0 || len(seqr.Faults) == 0 {
		t.Fatalf("inert workload: %+v", seqr)
	}
	cfg.Shards = envShards(t)
	shr := core.Run(cfg)
	assertFaultRunsEquivalent(t, seqr, shr)
}

// TestShardDifferentialEpochChurnWaxman16 covers the mass-membership
// kinds under concurrent Poisson churn: the mass leave, the epoch
// join/leave pair, and the churn events share barrier instants, and the
// pinned order (faults before churn at one instant) must hold in both
// modes.
func TestShardDifferentialEpochChurnWaxman16(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale differential; skipped under -short")
	}
	sc := scenario.MustLookup("epoch-churn-waxman-16")
	groups := sc.Groups(1)
	cfg, err := sc.SessionConfig(sc.Combos[0], 0.8, 1, core.UseSeed(2),
		3*des.Second, nil, groups)
	if err != nil {
		t.Fatal(err)
	}
	seqr := core.Run(cfg)
	if seqr.Delivered == 0 || len(seqr.Faults) == 0 || seqr.Joins == 0 {
		t.Fatalf("inert workload: %+v", seqr)
	}
	cfg.Shards = envShards(t)
	shr := core.Run(cfg)
	assertFaultRunsEquivalent(t, seqr, shr)
	if seqr.Joins != shr.Joins || seqr.Leaves != shr.Leaves || seqr.Regrafts != shr.Regrafts {
		t.Errorf("churn counters (%d,%d,%d) vs (%d,%d,%d)",
			seqr.Joins, seqr.Leaves, seqr.Regrafts, shr.Joins, shr.Leaves, shr.Regrafts)
	}
}
