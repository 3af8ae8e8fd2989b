package harness

import (
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/scenario"
)

// The control-plane refactor's safety contract: a static scenario must
// compile to the exact same runtime state — and therefore the exact same
// results, bit for bit — as the pre-refactor build-then-Run architecture.
// The hex float bits below were captured from the engine immediately
// before the control plane was introduced (see EXPERIMENTS.md §"Static
// byte-identity"); any change to these values means a supposedly
// behaviour-preserving change to the static pipeline was not.

func TestGoldenPaperFig4StaticBitIdentity(t *testing.T) {
	opts := Options{Seed: 7, Loads: []float64{0.45, 0.7, 0.95}, Duration: 9 * des.Second}
	r, err := ScenarioSweep(scenario.MustLookup("paper-fig4"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Delivered != 8136 {
		t.Fatalf("delivered = %d, want 8136", r.Delivered)
	}
	want := map[string][]uint64{
		// combo -> WDB bits, mean-delay bits per load
		"sigma-rho": {
			0x3fbd66cf41f212d7, 0x3f800425bf3203ce,
			0x3fd3765faa81eb9f, 0x3f89da2ec8e2e437,
			0x3fff38baab25f7d0, 0x3f9dd3456e4cb2ec,
		},
		"sigma-rho-lambda": {
			0x3fc7ff957d666e5a, 0x3fb6ee352bc0ee8f,
			0x3fcecbf25807e50d, 0x3fb7d8b63c6e66c8,
			0x3fd2950759f7a956, 0x3fb9ef829fac47f0,
		},
	}
	for _, c := range r.Curves {
		bits := want[c.Combo.String()]
		if bits == nil {
			t.Fatalf("unexpected combo %v", c.Combo)
		}
		for i := range r.Loads {
			if got := math.Float64bits(c.WDB.Y[i]); got != bits[2*i] {
				t.Fatalf("%v WDB at %.2f: 0x%016x, want 0x%016x — static pipeline diverged from pre-refactor",
					c.Combo, r.Loads[i], got, bits[2*i])
			}
			if got := math.Float64bits(c.MeanDelay.Y[i]); got != bits[2*i+1] {
				t.Fatalf("%v mean at %.2f: 0x%016x, want 0x%016x",
					c.Combo, r.Loads[i], got, bits[2*i+1])
			}
		}
	}
}

func TestGoldenPaperFig6StaticBitIdentity(t *testing.T) {
	opts := Options{Seed: 7, NumHosts: 48, Loads: []float64{0.5, 0.9}, Duration: 6 * des.Second}
	r, err := ScenarioSweep(scenario.MustLookup("paper-fig6"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Delivered != 514368 {
		t.Fatalf("delivered = %d, want 514368", r.Delivered)
	}
	type golden struct {
		wdb, mean []uint64
		layers    []int
	}
	want := map[string]golden{
		"capacity-aware dsct": {
			wdb:    []uint64{0x3fda471edfb680d2, 0x3ff12c663489c1d8},
			mean:   []uint64{0x3f9e0f098789b0e0, 0x3fa8bc68beaa7b1c},
			layers: []int{5, 6},
		},
		"sigma-rho dsct": {
			wdb:    []uint64{0x3fc28397ab1324dc, 0x3ff0c6afde54899a},
			mean:   []uint64{0x3f8b63542a473cd0, 0x3f9baab0719aeae2},
			layers: []int{4, 4},
		},
		"sigma-rho-lambda dsct": {
			wdb:    []uint64{0x3fd4e12d124309d1, 0x3fd8d479e0a7dc39},
			mean:   []uint64{0x3fc29faca33c1267, 0x3fc33178140b279c},
			layers: []int{4, 4},
		},
		"capacity-aware nice": {
			wdb:    []uint64{0x3fda89939776ff91, 0x3ff15a0b04625cb9},
			mean:   []uint64{0x3fa0fdaac0626d0f, 0x3fac9df51ce3edbc},
			layers: []int{5, 6},
		},
		"sigma-rho nice": {
			wdb:    []uint64{0x3fb442951072e9d7, 0x3fc977500ddf66ad},
			mean:   []uint64{0x3f8811e653768041, 0x3f9219a374400093},
			layers: []int{4, 4},
		},
		"sigma-rho-lambda nice": {
			wdb:    []uint64{0x3fd4ce3cecf8efc9, 0x3fd9dc5eec85b5f3},
			mean:   []uint64{0x3fc17331c68125c7, 0x3fc22097da25b7fa},
			layers: []int{4, 4},
		},
	}
	for _, c := range r.Curves {
		g, ok := want[c.Combo.String()]
		if !ok {
			t.Fatalf("unexpected combo %v", c.Combo)
		}
		for i := range r.Loads {
			if got := math.Float64bits(c.WDB.Y[i]); got != g.wdb[i] {
				t.Fatalf("%v WDB at %.2f: 0x%016x, want 0x%016x — static pipeline diverged from pre-refactor",
					c.Combo, r.Loads[i], got, g.wdb[i])
			}
			if got := math.Float64bits(c.MeanDelay.Y[i]); got != g.mean[i] {
				t.Fatalf("%v mean at %.2f: 0x%016x, want 0x%016x",
					c.Combo, r.Loads[i], got, g.mean[i])
			}
			if c.Layers[i] != g.layers[i] {
				t.Fatalf("%v layers at %.2f: %d, want %d", c.Combo, r.Loads[i], c.Layers[i], g.layers[i])
			}
		}
	}
}
