package harness

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/scenario"
)

// TestSnapshotDiffScenarios runs the differential harness over the
// scenario workloads CI exercises: every combo must restore
// bit-identically, sequential and sharded.
func TestSnapshotDiffScenarios(t *testing.T) {
	var fixtures []scenario.Scenario
	for _, name := range []string{"waxman-zipf-16", "churn-waxman-16", "outage-waxman-16"} {
		fixtures = append(fixtures, scenario.MustLookup(name).Quick())
	}
	// make snapshot's one-hop leg: Fig. 4(c) with the adaptive curve, whose
	// T/2 checkpoint lands inside a (σ, ρ, λ) episode of the controller.
	fig4c := scenario.MustLookup("paper-fig4c").Quick()
	fig4c.Combos = append(slices.Clone(fig4c.Combos), scenario.Combo{Scheme: "adaptive"})
	fixtures = append(fixtures, fig4c)
	for _, sc := range fixtures {
		for _, shards := range []int{1, 4} {
			lines, err := SnapshotDiff(sc, Options{Seed: 2, Shards: shards})
			if err != nil {
				t.Fatalf("%s shards=%d: %v\n%s", sc.Name, shards, err, strings.Join(lines, "\n"))
			}
			if len(lines) != len(sc.Combos) {
				t.Fatalf("%s shards=%d: %d verdicts for %d combos", sc.Name, shards, len(lines), len(sc.Combos))
			}
			for _, l := range lines {
				if !strings.Contains(l, "identical") {
					t.Errorf("%s shards=%d: combo not verified: %s", sc.Name, shards, l)
				}
			}
		}
	}
}

// TestSnapshotDiffCoversAdaptive pins total scheme coverage: the
// adaptive-scheme combo — which earlier snapshot format versions refused
// and the diff reported as skipped — now restore-verifies like every
// other combo.
func TestSnapshotDiffCoversAdaptive(t *testing.T) {
	sc := scenario.MustLookup("waxman-zipf-16").Quick()
	sc.Combos = append([]scenario.Combo(nil), sc.Combos...)
	sc.Combos = append(sc.Combos, scenario.Combo{Scheme: "adaptive"})
	lines, err := SnapshotDiff(sc, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var adaptive bool
	for _, l := range lines {
		if strings.Contains(l, "skipped") {
			t.Errorf("combo was skipped instead of verified: %s", l)
		}
		adaptive = adaptive || (strings.Contains(l, "adaptive") && strings.Contains(l, "identical"))
	}
	if !adaptive {
		t.Fatalf("adaptive combo did not restore-verify:\n%s", strings.Join(lines, "\n"))
	}
}

// BenchmarkSnapshotRoundTrip measures one snapshot + restore cycle on the
// 100k-host stress benchmark, at a shortened horizon so the checkpoint
// carries a realistic mid-run state without a minutes-long setup. The
// bytes metric records the snapshot size.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	sc := scenario.MustLookup("waxman-zipf-512")
	p, err := newSweepPlan(sc, Options{Seed: 1, Duration: des.Duration(des.Seconds(0.5))})
	if err != nil {
		b.Fatal(err)
	}
	cfg := p.cfgs[len(p.cfgs)-1]
	ck := core.NewSession(cfg)
	ck.Start()
	ck.RunTo(des.Time(cfg.Duration) / 2)
	blob, err := ck.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(blob)), "bytes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ck.Snapshot(); err != nil {
			b.Fatal(err)
		}
		if _, err := core.Restore(cfg, blob); err != nil {
			b.Fatal(err)
		}
	}
}
