package core

import (
	"testing"

	"repro/internal/traffic"
)

// TestProbeSingleHopCurves prints the Fig-4-style curves at a few loads.
// Exploratory: run with -v. Kept as a cheap smoke test (no assertions
// beyond sanity) because it documents the expected curve shapes.
func TestProbeSingleHopCurves(t *testing.T) {
	if testing.Short() {
		t.Skip("probe is informational")
	}
	for _, mix := range []traffic.Mix{traffic.MixAudio, traffic.MixVideo, traffic.MixHetero} {
		specs := Workload(WorkloadExtremal).BuildSpecsN(mix, 3, 1, 1.04, 0.05, 30)
		t.Logf("mix=%v specs=%+v", mix, specs)
		for _, load := range []float64{0.35, 0.5, 0.65, 0.7, 0.75, 0.8, 0.9, 0.95} {
			sr := Run(OneHop(Config{Mix: mix, Load: load, Scheme: SchemeSigmaRho,
				Seed: 1, Specs: specs}))
			srl := Run(OneHop(Config{Mix: mix, Load: load, Scheme: SchemeSRL,
				Seed: 1, Specs: specs}))
			t.Logf("  load=%.2f  sr: wdb=%.4f mean=%.4f  srl: wdb=%.4f mean=%.4f  (thr=%.3f)",
				load, sr.WDB, sr.MeanDelay, srl.WDB, srl.MeanDelay, sr.ThresholdUtil)
		}
	}
}
