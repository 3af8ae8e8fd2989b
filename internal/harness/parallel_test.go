package harness

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/traffic"
)

// Same seed, same config => the same whole Result: the engines must be
// deterministic run to run (and hence safe to replicate across workers).
func TestEnginesAreDeterministic(t *testing.T) {
	for name, cfg := range map[string]core.Config{
		"single hop": core.OneHop(core.Config{Mix: traffic.MixVideo, Load: 0.8,
			Scheme: core.SchemeSRL, Duration: 7 * des.Second, Seed: 11}),
		"session": {NumHosts: 40, Mix: traffic.MixAudio, Load: 0.7,
			Scheme: core.SchemeAdaptive, Duration: 5 * des.Second, Seed: 7},
	} {
		if a, b := core.Run(cfg), core.Run(cfg); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s diverged: %v/%d vs %v/%d", name, a.WDB, a.Delivered, b.WDB, b.Delivered)
		}
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
