package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/scenario"
)

// reoptCell is one quick reopt-churn-waxman-16 cell: 150 hosts in 16 Zipf
// groups under churn, with the re-optimization plane on.
func reoptCell(t *testing.T, combo int) core.Config {
	t.Helper()
	sc := scenario.MustLookup("reopt-churn-waxman-16").Quick()
	cfg, err := sc.SessionConfig(sc.Combos[combo], sc.Loads[len(sc.Loads)-1], 1, core.SeedOpt{}, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Reopt.Enabled() {
		t.Fatal("the cell has no re-optimization plane")
	}
	return cfg
}

// TestRewireMatchesOracle holds the rewire's choice to the scan it
// replaced: every 50 ms of the cell, for every group, the (member, parent,
// predicted delay) the plane would pick — as a pass's first move and as its
// second, with the first member excluded — equals the oracle's, for the
// dsct and spt combos.
func TestRewireMatchesOracle(t *testing.T) {
	for combo := range 2 {
		cfg := reoptCell(t, combo)
		s := core.NewSession(cfg)
		s.Start()
		plans := 0
		for at := 50 * des.Millisecond; at < cfg.Duration; at += 50 * des.Millisecond {
			s.RunTo(des.Time(at))
			for g := range s.Groups() {
				var moved []int
				for move := 0; move < 2; move++ {
					w, p, pred, ok := core.RewirePlan(s, g, moved)
					ow, op, opred, ook := core.RewireOracle(s, g, moved)
					if w != ow || p != op || ok != ook || math.Float64bits(pred) != math.Float64bits(opred) {
						t.Fatalf("combo %d at %v group %d move %d: plan (%d → %d, %.17g, %v), oracle (%d → %d, %.17g, %v)",
							combo, at, g, move, w, p, pred, ok, ow, op, opred, ook)
					}
					if !ok {
						break
					}
					plans++
					moved = append(moved, w)
				}
			}
		}
		s.Finish()
		if plans == 0 {
			t.Fatalf("combo %d: no rewire was ever planned — the cell does not exercise the scan", combo)
		}
		t.Logf("combo %d (%s): %d plans matched", combo, cfg.Strategy, plans)
	}
}

// TestRewireScanAllocFree: the rewire's candidate scan — worst member,
// subtree height, attached walk, selection — allocates nothing on a warm
// session.
func TestRewireScanAllocFree(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates; the budget is the plain build's")
	}
	cfg := reoptCell(t, 0)
	s := core.NewSession(cfg)
	s.Start()
	s.RunTo(des.Time(cfg.Duration) / 2)
	scans := 0
	for g := range s.Groups() {
		if _, _, _, ok := core.RewirePlan(s, g, nil); !ok {
			continue
		}
		scans++
		if n := testing.AllocsPerRun(20, func() { core.RewirePlan(s, g, nil) }); n != 0 {
			t.Errorf("group %d: the rewire scan allocates %.1f objects", g, n)
		}
	}
	if scans == 0 {
		t.Fatal("no group has a rewire to plan at mid-run")
	}
	s.Finish()
}
