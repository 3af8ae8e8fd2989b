package harness

import (
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/traffic"
)

// Same seed, same config => bit-identical WDB: the engines must be
// deterministic run to run (and hence safe to replicate across workers).
func TestEnginesAreDeterministic(t *testing.T) {
	sh := core.OneHop(core.Config{Mix: traffic.MixVideo, Load: 0.8,
		Scheme: core.SchemeSRL, Duration: 7 * des.Second, Seed: 11})
	if a, b := core.Run(sh), core.Run(sh); a.WDB != b.WDB || a.Delivered != b.Delivered {
		t.Fatalf("single hop diverged: %v/%d vs %v/%d", a.WDB, a.Delivered, b.WDB, b.Delivered)
	}
	mg := core.Config{NumHosts: 40, Mix: traffic.MixAudio, Load: 0.7,
		Scheme: core.SchemeAdaptive, Duration: 5 * des.Second, Seed: 7}
	if a, b := core.Run(mg), core.Run(mg); a.WDB != b.WDB || a.Delivered != b.Delivered {
		t.Fatalf("session diverged: %v/%d vs %v/%d", a.WDB, a.Delivered, b.WDB, b.Delivered)
	}
}

// The specs-sharing invariant the sweeps rely on: flow envelopes are a
// function of (workload, mix, seed) only — never of the load axis.
func TestSpecsAreLoadInvariant(t *testing.T) {
	for _, w := range []core.Workload{core.WorkloadExtremal, core.WorkloadVBR} {
		lo := core.Run(core.OneHop(core.Config{Mix: traffic.MixHetero, Load: 0.4,
			Scheme: core.SchemeSigmaRho, Duration: des.Second, Seed: 5, Workload: w,
			EnvelopeHorizonSec: 5}))
		hi := core.Run(core.OneHop(core.Config{Mix: traffic.MixHetero, Load: 0.9,
			Scheme: core.SchemeSigmaRho, Duration: des.Second, Seed: 5, Workload: w,
			EnvelopeHorizonSec: 5}))
		if len(lo.Specs) != len(hi.Specs) {
			t.Fatalf("%v: spec counts differ", w)
		}
		for i := range lo.Specs {
			if lo.Specs[i] != hi.Specs[i] {
				t.Fatalf("%v: spec %d differs across loads: %+v vs %+v",
					w, i, lo.Specs[i], hi.Specs[i])
			}
		}
	}
}

func TestDeriveSeed(t *testing.T) {
	if DeriveSeed(1, 0) != DeriveSeed(1, 0) {
		t.Fatal("DeriveSeed not deterministic")
	}
	if DeriveSeed(1, 0) == DeriveSeed(1, 1) || DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Fatal("DeriveSeed collisions across neighbouring points")
	}
	for i := 0; i < 64; i++ {
		if DeriveSeed(uint64(i), i) == 0 {
			t.Fatal("DeriveSeed produced the reserved zero value")
		}
	}
}
